"""Plain-text matrix and vector files.

Matrix format: first line ``n d``, then ``n`` lines of ``d`` space-separated
decimals (``#`` is not a comment).  Vector format: first line ``n``, then
``n`` decimals, one per line.  Headers must be positive, and a blank, missing
or malformed line, or anything but whitespace after the last line, raises
``ValueError`` naming the file.
Values are written with 17 significant digits so a round trip preserves at
least 15 significant digits.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .linalg import as_matrix, as_vector


def write_matrix(a: np.ndarray, path) -> None:
    a = as_matrix(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    with path.open() as fh:
        n, d = _read_header(fh, path, "n d")
        a = _read_rows(fh, path, n, f"expected {n} rows of {d} entries")
    if a.shape != (n, d):
        raise ValueError(f"{path}: expected {n} rows of {d} entries, got {a.shape[0]} rows of {a.shape[1]}")
    return as_matrix(a, str(path))


def write_vector(v: np.ndarray, path) -> None:
    v = as_vector(v)
    lines = [str(v.shape[0])]
    lines.extend(f"{x:.17g}" for x in v)
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector(path) -> np.ndarray:
    path = Path(path)
    with path.open() as fh:
        (n,) = _read_header(fh, path, "n")
        v = _read_rows(fh, path, n, f"expected {n} values")
    if v.shape != (n, 1):
        raise ValueError(f"{path}: expected {n} values, one per line, got {v.shape[0]} lines of {v.shape[1]}")
    return as_vector(v[:, 0], str(path))


def _read_header(fh, path: Path, fields: str) -> list[int]:
    """The positive integers of the header line ``fields`` (``"n d"`` or ``"n"``).

    A header of another length, or with a field that is not a positive
    integer, raises ``ValueError`` naming ``path`` and the expected header.
    """
    header = fh.readline().split()
    if len(header) != len(fields.split()):
        raise ValueError(f"{path}: expected '{fields}' header, got {header!r}")
    try:
        sizes = [int(field) for field in header]
    except ValueError:
        raise ValueError(f"{path}: expected an integer '{fields}' header, got {header!r}") from None
    if min(sizes) < 1:
        raise ValueError(f"{path}: expected a positive '{fields}' header, got {header!r}")
    return sizes


def _read_rows(fh, path: Path, n: int, expected: str) -> np.ndarray:
    """Up to ``n`` lines of space-separated decimals from ``fh``, as a 2-D
    array, and then the end of the file.

    A malformed line, or anything but whitespace after the ``n`` lines,
    raises ``ValueError`` naming ``path`` and what was ``expected``.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on blank or missing rows; they are malformed here
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(fh, dtype=float, comments=None, ndmin=2, max_rows=n)
    except (ValueError, UserWarning) as exc:
        raise ValueError(f"{path}: {expected}: {exc}") from exc
    # loadtxt stops after max_rows lines and leaves fh at the rest of the file
    extra = fh.read().split(maxsplit=1)
    if extra:
        raise ValueError(f"{path}: {expected}, got more after them, starting {extra[0]!r}")
    return rows
