"""Instance files: JSON on disk, ZeroPoleData in memory.

Complex numbers are stored as two-element [re, im] arrays and matrices
as row-major nested lists of those pairs, so files diff cleanly and
round-trip bit-exactly (json preserves every float that repr does).
A format_version field gates future changes.

save_instance writes the text of json.dumps(instance_to_dict(...),
indent=2) byte for byte, but builds it itself: one float repr per
number and one string template per array, where json's indenting
encoder walks every pair in Python. The loader reads each array with
one np.array call when the field is a well-formed nested list of
numbers, and falls back to the checked per-entry loop otherwise, so a
malformed field raises the same ParseError either way.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .zero_pole import ZeroPoleData

__all__ = [
    "FORMAT_VERSION",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]

FORMAT_VERSION = 1


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _vector_out(v: np.ndarray) -> list:
    return [_pair(complex(z)) for z in v]


def _matrix_out(m: np.ndarray) -> list:
    return [[_pair(complex(z)) for z in row] for row in m]


def _complex_in(obj, where: str) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(v, (int, float)) for v in obj)):
        raise ParseError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _numeric(obj, shape: tuple):
    """obj as a complex array of the given shape, when numpy reads it as
    nested lists of [re, im] pairs of real numbers; None otherwise."""
    try:
        a = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    if a.dtype.kind not in "fi" or a.shape != shape + (2,):
        return None
    # the view keeps every bit of both parts, signed zeros included
    return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]


def _vector_in(obj, count: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != count:
        raise ParseError(f"{where}: expected {count} entries")
    fast = _numeric(obj, (count,))
    if fast is not None:
        return fast
    return np.array([_complex_in(v, f"{where}[{i}]")
                     for i, v in enumerate(obj)], dtype=np.complex128)


def _matrix_in(obj, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    fast = _numeric(obj, (rows, cols))
    if fast is not None:
        return fast
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}[{i}]: expected {cols} entries")
        for j, v in enumerate(row):
            out[i, j] = _complex_in(v, f"{where}[{i}][{j}]")
    return out


def instance_to_dict(d: ZeroPoleData, metadata: dict | None = None) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "k": d.k,
        "n": d.n,
        "poles": _vector_out(d.poles),
        "zeros": _vector_out(d.zeros),
        "F_P": _matrix_out(d.F_P),
        "G_P": _matrix_out(d.G_P),
        "F_N": _matrix_out(d.F_N),
        "G_N": _matrix_out(d.G_N),
    }
    if metadata:
        out["metadata"] = metadata
    return out


def instance_from_dict(obj) -> tuple:
    """Build (ZeroPoleData, metadata) from a parsed file.

    Shape and type problems raise ParseError naming the field; the
    returned data has already passed model validation.
    """
    if not isinstance(obj, dict):
        raise ParseError("top level: expected a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"format_version: expected {FORMAT_VERSION}, got {version!r}")
    for field in ("k", "n", "poles", "zeros", "F_P", "G_P", "F_N", "G_N"):
        if field not in obj:
            raise ParseError(f"missing field '{field}'")
    k, n = obj["k"], obj["n"]
    if not isinstance(k, int) or not isinstance(n, int) or k < 1 or n < 0:
        raise ParseError(f"k/n: expected integers k >= 1, n >= 0, "
                         f"got {k!r}/{n!r}")
    data = ZeroPoleData(
        poles=_vector_in(obj["poles"], n, "poles"),
        zeros=_vector_in(obj["zeros"], n, "zeros"),
        F_P=_matrix_in(obj["F_P"], k, n, "F_P"),
        G_P=_matrix_in(obj["G_P"], n, k, "G_P"),
        F_N=_matrix_in(obj["F_N"], k, n, "F_N"),
        G_N=_matrix_in(obj["G_N"], n, k, "G_N"),
    )
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParseError("metadata: expected an object")
    return data, meta


def _array_text(a: np.ndarray, depth: int) -> str:
    """json.dumps(..., indent=2) of a complex array written as nested
    [re, im] lists, for an array that opens at nesting depth `depth`."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    shape = a.shape + (2,)
    # one "%s" per float, nested from the innermost [re, im] outwards
    template = "%s"
    for level in reversed(range(len(shape))):
        if shape[level] == 0:
            template = "[]"
            continue
        pad = "\n" + "  " * (depth + level + 1)
        template = ("[" + pad + ("," + pad).join([template] * shape[level])
                    + "\n" + "  " * (depth + level) + "]")
    return template % tuple(map(float.__repr__,
                                a.view(np.float64).ravel().tolist()))


def save_instance(d: ZeroPoleData, path, metadata: dict | None = None):
    """Write the instance as json.dumps(instance_to_dict(d, metadata),
    indent=2) would, plus a final newline."""
    fields = [f'"format_version": {FORMAT_VERSION}', f'"k": {d.k}',
              f'"n": {d.n}']
    for name in ("poles", "zeros", "F_P", "G_P", "F_N", "G_N"):
        fields.append(f'"{name}": {_array_text(getattr(d, name), 1)}')
    if metadata:
        meta = json.dumps(metadata, indent=2).replace("\n", "\n  ")
        fields.append(f'"metadata": {meta}')
    text = "{\n  " + ",\n  ".join(fields) + "\n}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_instance(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    return instance_from_dict(obj)
