"""Juddian-point records and deterministic CSV/JSON serialization.

Every float, in CSV and JSON alike, is rendered by one rule (``FLOAT``, 17
significant digits), so re-parsing reproduces it bit-exactly; every CSV
table is written by one routine, ``csv_lines``; field order is fixed, so
identical invocations produce byte-identical output. ``csv_lines`` hands
out a table as its header line and then one string per chunk of up to
``_CHUNK_ROWS`` rows, so a caller writes a chunk at a time. A chunk of
strings, or a small chunk of floats, is one ``%`` of the line template
repeated over the chunk's values. A larger chunk of floats is rendered by
``_format_floats``, an exact vectorised form of ``FLOAT``: Python's ``%``
stays the reference it is tested against, and renders the values it cannot
decide (ties and non-finite values).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from types import SimpleNamespace
from typing import Any, Iterator, Sequence

import numpy as np

from .solver import QesSolution, _split, _two_prod

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
_PAIR = "[" + FLOAT + "," + FLOAT + "]"


def fmt(value: Any) -> str:
    """One mixed CSV field: a float by ``FLOAT``, None empty, else str."""
    if isinstance(value, float):
        return FLOAT % value
    return "" if value is None else str(value)


# Rows per string csv_lines yields. Writing a 4031 x 5 table was fastest at
# 256 rows a chunk: 128 rows took about 40% longer, 512 to 2048 rows 20-25%.
_CHUNK_ROWS = 256
# Below this many fields a chunk is formatted faster by one ``%`` than by
# _format_floats, whose numpy calls cost 60-100 us a chunk.
_VECTOR_MIN_FIELDS = 400


def csv_lines(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> Iterator[str]:
    """The CSV writer: the header line, then the rows as LF-ended lines, one
    string per chunk of up to ``_CHUNK_ROWS`` rows. A 2-D array of numbers
    is written by ``FLOAT``, a list of rows of strings (``record_csv_row``)
    as they are; a chunk is the line template repeated over the chunk, ``%``
    its flattened values. Array chunks of ``_VECTOR_MIN_FIELDS`` fields or
    more are rendered by ``_format_floats`` instead, to the same bytes.
    No field is quoted."""
    yield ",".join(header) + "\n"
    line = ",".join([FLOAT if isinstance(rows, np.ndarray) else "%s"] * len(header)) + "\n"
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        if not isinstance(chunk, np.ndarray):
            yield line * len(chunk) % tuple(chain.from_iterable(chunk))
        elif chunk.size < _VECTOR_MIN_FIELDS:
            yield line * len(chunk) % tuple(chunk.ravel().tolist())
        else:
            yield _format_floats(chunk)


# The vectorised FLOAT renderer. Each value x = m 2**e (np.frexp) is scaled
# to y = x 10**q in [1e16, 2e17), where 2**e 10**q is held per binary
# exponent as a double-double hi + lo built from exact integers, so that the
# Dekker product m hi plus m lo gives y to within 1e-14. Rounding y (or y/10
# when y >= 1e17) gives the 17 significant digits and the decimal exponent
# X that "%.17g" prints; a value within _TIE of a rounding tie, or not
# finite, is left to Python's ``%``. Each field is then laid out in a row
# of _W bytes, which a keep mask compacts into the text:
#   0 sign | 1-5 "0." and zeros (-4 <= X < 0) | 6-23 the digits, with the
#   point after the first _point(X) | 24-28 "e+XX" or "e+XXX" | 31 separator.
_E0 = 1074  # frexp exponents of nonzero doubles run from 1 - _E0 to 1024
_X0 = 324  # decimal exponents run from -_X0 to 308
_FALLBACK = _X0 + 309  # the exponent code of a field left to ``%``
_TIE = 1e-9  # far above that error, so y and its exact value round alike
_W = 32
_DIGITS = 6  # first digit column; (_DIGITS + 2) % 4 == 0 aligns the words


def _point(x: int) -> int:
    """Digits before the point at decimal exponent x; 17 (none) for the
    0.000ddd form."""
    if 0 <= x < 17:
        return x + 1
    return 17 if -4 <= x < 0 else 1


def _keep_class(x: int) -> int:
    """Fields of one class drop the same columns for a given digit count
    and sign: 0-20 for x = -4..16, 21 and 22 for a two- and three-digit
    exponent, 23 for a fallback."""
    if -4 <= x < 17:
        return x + 4
    return 21 if abs(x) < 100 else 22


@functools.cache
def _layout() -> SimpleNamespace:
    """Tables of the renderer, built at first use: the scales per binary
    exponent (filled in by ``_scales``), 4-digit words, and the row
    template per decimal exponent and keep mask per keep class."""
    n_e = _E0 + 1025
    t = SimpleNamespace(built=np.zeros(n_e, bool), hi=np.zeros(n_e), hh=np.zeros(n_e),
                        hl=np.zeros(n_e), lo=np.zeros(n_e), xcode=np.zeros(n_e, np.int64))
    t.built[0] = True  # slot 0 is zero's: product 0, X = 0
    t.xcode[0] = _X0
    d = np.arange(10000)
    words = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1) + ord("0")
    t.words = words.astype(np.uint8).view(np.uint32).ravel()
    t.zeros = np.zeros(10000, np.int8)  # trailing zeros of a word
    for k in (1, 2, 3, 4):
        t.zeros[d % 10**k == 0] = k

    # By decimal exponent: the fixed characters, and which digit each slot
    # shows: digit j in slot j before the point (lt), in slot j + 1 after it (gt).
    t.base = np.zeros((_FALLBACK + 1, _W), np.uint8)
    t.lt = np.zeros((_FALLBACK + 1, _W), np.uint8)
    t.gt = np.zeros((_FALLBACK + 1, _W), np.uint8)
    t.cls = np.full(_FALLBACK + 1, 23)
    slots = np.arange(18)
    t.base[:, 0] = ord("-")
    for x in range(-_X0, 309):
        row, a = t.base[x + _X0], _point(x)
        if -4 <= x < 0:
            _put(row, _DIGITS - 1 + x, "0." + "0" * (-x - 1))
        elif not 0 <= x < 17:
            _put(row, 24, "e%+03d" % x)
        row[_DIGITS + a] = ord(".")
        t.lt[x + _X0, _DIGITS:_DIGITS + 18] = slots < a
        t.gt[x + _X0, _DIGITS:_DIGITS + 18] = slots > a
        t.cls[x + _X0] = _keep_class(x)
    _put(t.base[_FALLBACK], 1, FLOAT)

    keep = np.zeros((24, 18, 2, _W), bool)  # by class, digit count, sign
    keep[..., _W - 1] = True
    keep[:23, :, 1, 0] = True
    keep[23, :, :, 1:1 + len(FLOAT)] = True
    for x in [*range(-4, 17), 99, 100]:
        cls, a = _keep_class(x), _point(x)
        if x < 0:
            keep[cls, ..., _DIGITS - 1 + x:_DIGITS] = True
        elif x >= 17:
            keep[cls, ..., 24:24 + len("e%+03d" % x)] = True
        for n in range(1, 18):
            # the integer digits, then the point and the digits up to the
            # last nonzero one; the 0.000ddd form has no integer digits
            shown = n + 1 if n > a else (n if x < 0 else a)
            keep[cls, n, :, _DIGITS:_DIGITS + shown] = True
    t.keep = keep.reshape(-1, _W)
    return t


def _put(row: np.ndarray, col: int, text: str) -> None:
    row[col:col + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)


def _scales(t: SimpleNamespace, slots: np.ndarray) -> None:
    """Fill in the scale of each binary exponent slot: 2**e 10**q in
    [2e16, 2e17) as hi + lo, hi split for the Dekker product, and the code
    of the decimal exponent 16 - q."""
    for slot in np.unique(slots).tolist():
        e = slot - _E0
        q = 16 - math.floor(e * math.log10(2))
        scale = Fraction(2) ** e * Fraction(10) ** q
        while scale < 2 * 10**16:
            q, scale = q + 1, scale * 10
        while scale >= 2 * 10**17:
            q, scale = q - 1, scale / 10
        hi = float(scale)
        t.hi[slot], t.lo[slot] = hi, float(scale - Fraction(hi))
        t.hh[slot], t.hl[slot] = _split(hi)
        t.xcode[slot] = 16 - q + _X0
    t.built[slots] = True


def _format_floats(chunk: np.ndarray) -> str:
    """``line * len(chunk) % tuple(chunk.ravel().tolist())`` for the line of
    ``FLOAT`` fields, byte for byte, for a 2-D chunk of floats."""
    t = _layout()
    x = np.ascontiguousarray(chunk, dtype=np.float64).ravel()
    n, ncols = len(x), chunk.shape[1]
    m, e = np.frexp(x)
    finite = np.isfinite(m)
    m = np.abs(m)
    m[~finite] = 0.0
    slot = e + _E0 * (m != 0)
    missing = ~t.built.take(slot)
    if missing.any():
        _scales(t, slot[missing])
    p, err = _two_prod(m, _split(m), t.hi.take(slot), (t.hh.take(slot), t.hl.take(slot)))
    lo = err + m * t.lo.take(slot)  # y = p + lo
    ip = np.floor(p)
    f = (p - ip) + lo
    g = f + 0.5
    up = np.floor(g)
    yr = ip.astype(np.int64) + up.astype(np.int64)  # y rounded
    big = yr >= 10**17  # 18 digits: round y/10 instead
    y10 = yr // 10
    r = (yr - 10 * y10) + (f - up)  # y - 10 y10
    digits = np.where(big, y10 + (r > 5), yr)
    tie = (np.abs(g - np.rint(g)) < _TIE) | (big & (np.abs(r - 5) < _TIE))
    fallback = tie | ~finite
    xcode = t.xcode.take(slot) + big
    xcode[fallback] = _FALLBACK

    # the digits: d0, then four 4-digit words, and how many to show
    hi = digits // 10**8
    lo = digits - hi * 10**8
    d0 = hi // 10**8
    hi4, lo4 = hi // 10**4, lo // 10**4
    words = (hi4 - d0 * 10**4, hi - hi4 * 10**4, lo4, lo - lo4 * 10**4)
    text = np.zeros(n * _W + 1, np.uint8)  # one spare byte for the shift below
    rows = text[:-1].reshape(n, _W)
    rows[:, _DIGITS + 1] = d0 + ord("0")
    packed = rows.view(np.uint32)
    for k, w in enumerate(words):
        packed[:, (_DIGITS + 2) // 4 + k] = t.words.take(w)
    z1, z2, z3, z4 = (t.zeros.take(w) for w in words)
    shown = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))

    # digit j is in column _DIGITS + 1 + j of rows, and in column _DIGITS + j
    # of the same bytes read from one byte later
    out = t.base.take(xcode, axis=0)
    out += t.lt.take(xcode, axis=0) * text[1:].reshape(n, _W)
    out += t.gt.take(xcode, axis=0) * rows
    out[:, _W - 1] = ord(",")
    out[ncols - 1::ncols, _W - 1] = ord("\n")
    keep = t.keep.take((t.cls.take(xcode) * 18 + shown) * 2 + np.signbit(x), axis=0)
    body = str(memoryview(out[keep]), "ascii")
    return body % tuple(x[fallback].tolist()) if fallback.any() else body


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


@functools.lru_cache(maxsize=64)
def _json_heads(keys: tuple) -> tuple[str, ...]:
    """The encoded '"key":' of each key of a dict, each but the first after a
    comma; records and their nested dicts repeat a few key tuples."""
    return tuple(("," if i else "") + encode_basestring(str(key)) + ":"
                 for i, key in enumerate(keys))


def _write_json(obj: Any, parts: list[str]) -> None:
    """The generic walk, except that the float and string values of a dict
    (most of a record, and its residuals) are written in place, and a list
    of float pairs (the roots) is one ``%``."""
    if isinstance(obj, dict):
        parts.append("{")
        for head, value in zip(_json_heads(tuple(obj)), obj.values()):
            if isinstance(value, float):
                parts.append(head + FLOAT % value)
            elif isinstance(value, str):
                parts.append(head + encode_basestring(value))
            else:
                parts.append(head)
                _write_json(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, list) and len(v) == 2 and isinstance(v[0], float)
                       and isinstance(v[1], float) for v in obj):
            parts.append("[" + ",".join([_PAIR] * len(obj)) % tuple(chain.from_iterable(obj)) + "]")
        else:
            parts.append("[")
            for i, value in enumerate(obj):
                if i:
                    parts.append(",")
                _write_json(value, parts)
            parts.append("]")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, float):
        parts.append(FLOAT % obj)
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(encode_basestring(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
