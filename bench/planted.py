"""Write a planted least-squares system as matrix and rhs text files.

    python3 bench/planted.py N D RESIDUAL SEED MATRIX RHS

The matrix is row-normalized Gaussian ``N x D``; the right-hand side is
``a @ x + e`` with ``e`` orthogonal to the range of ``a`` and of norm
exactly ``RESIDUAL``, so the least-squares residual norm is ``RESIDUAL``.
Files use the library's text format: an ``n d`` (or ``n``) header, then
values with 17 significant digits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


def write_planted_system(n: int, d: int, residual: float, seed: int, matrix: Path, rhs: Path) -> None:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a /= np.linalg.norm(a, axis=1)[:, None]
    q, _ = np.linalg.qr(a)
    noise = rng.standard_normal(n)
    noise -= q @ (q.T @ noise)
    b = a @ rng.standard_normal(d) + noise * (residual / np.linalg.norm(noise))
    with Path(matrix).open("w") as fh:
        fh.write(f"{n} {d}\n")
        np.savetxt(fh, a, fmt="%.17g")
    with Path(rhs).open("w") as fh:
        fh.write(f"{n}\n")
        np.savetxt(fh, b, fmt="%.17g")


if __name__ == "__main__":
    n, d, residual, seed, matrix, rhs = sys.argv[1:]
    write_planted_system(int(n), int(d), float(residual), int(seed), Path(matrix), Path(rhs))
