"""Instance files: JSON on disk, ZeroPoleData in memory.

Complex numbers are stored as two-element [re, im] arrays and matrices
as row-major nested lists of those pairs, so files diff cleanly and
round-trip bit-exactly (json preserves every float that repr does).
A format_version field gates future changes.

One name list, _ARRAYS, orders the six arrays everywhere, and one codec
serves every rank: _nested writes an array as nested pairs and
_array_in reads one back. save_instance writes the text of
json.dumps(instance_to_dict(...), indent=2) byte for byte, but builds it
itself: one float repr per number and one string template per array,
where json's indenting encoder walks every pair in Python. Every file
the package writes goes through one writer, _write_text: a new file is
created as open(path, "w") would create it, and an existing one is
overwritten from its start and then cut to the new length, never
emptied first. On ext4 (default auto_da_alloc) emptying a file that has
data costs a flush of its old blocks, about 60 µs per rewrite on a
shared-VM disk, against a few µs to overwrite it and trim the tail; the
inode, links, mode and owner are the same either way. The reader
takes one np.array call for a well-formed field and otherwise walks it
entry by entry, raising a ParseError that names the first bad entry.
"""

from __future__ import annotations

import json
import os
import stat

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
_ARRAYS = ("poles", "zeros", "F_P", "G_P", "F_N", "G_N")


def _nested(a: np.ndarray) -> list:
    """a as nested lists of [re, im] pairs, at any rank, with every bit
    of both parts, signed zeros included."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


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


def _checked(obj, shape: tuple, where: str):
    """obj as nested lists of complex, read entry by entry; the first
    entry that does not fit shape raises a ParseError naming it."""
    if not shape:
        if (not isinstance(obj, (list, tuple)) or len(obj) != 2
                or not all(isinstance(v, (int, float)) for v in obj)):
            raise ParseError(f"{where}: expected a [re, im] pair, got {obj!r}")
        try:
            return complex(obj[0], obj[1])
        except OverflowError:
            raise ParseError(f"{where}: number does not fit a float") from None
    if not isinstance(obj, list) or len(obj) != shape[0]:
        unit = "entries" if len(shape) == 1 else "rows"
        raise ParseError(f"{where}: expected {shape[0]} {unit}")
    return [_checked(v, shape[1:], f"{where}[{i}]") for i, v in enumerate(obj)]


def _array_in(obj, shape: tuple, where: str) -> np.ndarray:
    """obj as a complex array of the given shape: one np.array call when
    it is well formed, the checked walk otherwise."""
    fast = _numeric(obj, shape)
    if fast is not None:
        return fast
    return np.array(_checked(obj, shape, where),
                    dtype=np.complex128).reshape(shape)


def instance_to_dict(d: ZeroPoleData, metadata: dict | None = None) -> dict:
    out = {"format_version": FORMAT_VERSION, "k": d.k, "n": d.n,
           **{name: _nested(getattr(d, name)) for name in _ARRAYS}}
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
    for field in ("k", "n") + _ARRAYS:
        if field not in obj:
            raise ParseError(f"missing field '{field}'")
    k, n = obj["k"], obj["n"]
    # a JSON true is a Python int, but no count
    if (any(isinstance(v, bool) or not isinstance(v, int) for v in (k, n))
            or k < 1 or n < 0):
        raise ParseError(f"k/n: expected integers k >= 1, n >= 0, "
                         f"got {k!r}/{n!r}")
    shapes = ((n,), (n,), (k, n), (n, k), (k, n), (n, k))
    data = ZeroPoleData(**{name: _array_in(obj[name], shape, name)
                           for name, shape in zip(_ARRAYS, shapes)})
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
    indent=2) would, plus a final newline, through _write_text: an
    existing file at path is rewritten in place, not emptied first."""
    fields = [f'"format_version": {FORMAT_VERSION}', f'"k": {d.k}',
              f'"n": {d.n}']
    for name in _ARRAYS:
        fields.append(f'"{name}": {_array_text(getattr(d, name), 1)}')
    if metadata:
        meta = json.dumps(metadata, indent=2).replace("\n", "\n  ")
        fields.append(f'"metadata": {meta}')
    _write_text(path, "{\n  " + ",\n  ".join(fields) + "\n}\n")


def _write_text(path, text: str) -> None:
    """Write text to path as UTF-8, creating the file as open(path, "w")
    would, but rewriting an existing one in place: its start is
    overwritten and a regular file is then cut to the new length, so it
    is never emptied first. A device or FIFO is only written to."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


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
