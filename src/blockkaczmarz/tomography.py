"""Random-ray tomography operator over a square pixel grid.

Each matrix row holds the exact intersection lengths of one straight ray
with the unit pixels of an ``N x N`` grid occupying ``[0, N] x [0, N]``.
Rays are chords of the square: two endpoints drawn uniformly on two distinct
boundary edges.  Pixel ``(ix, iy)`` maps to column ``iy * N + ix``.
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-12


def boundary_point(edge: int, offset: float, n_grid: int) -> tuple[float, float]:
    """Point at fractional position ``offset`` in [0, 1] along a square edge.

    Edges: 0 bottom (y=0), 1 right (x=N), 2 top (y=N), 3 left (x=0).
    """
    s = offset * n_grid
    if edge == 0:
        return (s, 0.0)
    if edge == 1:
        return (float(n_grid), s)
    if edge == 2:
        return (s, float(n_grid))
    if edge == 3:
        return (0.0, s)
    raise ValueError(f"edge must be 0..3, got {edge}")


def random_chord(n_grid: int, rng: np.random.Generator) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two independent uniform points on two distinct edges of the grid square."""
    e1 = int(rng.integers(4))
    u1 = float(rng.random())
    others = [e for e in range(4) if e != e1]
    e2 = others[int(rng.integers(3))]
    u2 = float(rng.random())
    return boundary_point(e1, u1, n_grid), boundary_point(e2, u2, n_grid)


def line_pixel_intersections(
    p0: tuple[float, float], p1: tuple[float, float], n_grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact intersection lengths of the segment ``p0 -> p1`` with each pixel.

    Returns
    -------
    (indices, lengths)
        Flat pixel indices and the matching positive intersection lengths,
        in order along the segment; both empty if the segment is degenerate.
    """
    if n_grid < 1:
        raise ValueError("n_grid must be positive")
    (x0, y0), (x1, y1) = p0, p1
    _, indices, lengths = _ray_crossings(*np.array([[x0], [y0], [x1], [y1]], dtype=float), n_grid)
    return indices, lengths


def _ray_crossings(x0, y0, x1, y1, n_grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel intersections of the segments ``(x0, y0) -> (x1, y1)``, all rays at once.

    The parametric grid-crossing construction: per ray, the parameters in
    ``(0, 1)`` where the segment crosses an interior grid line, together with
    0 and 1, are sorted (padded with ``inf`` to a common width), and each
    sub-interval longer than ``_TINY`` is attributed to the pixel containing
    its midpoint.  Segments of length ``<= _TINY`` give nothing.

    Returns ``(rays, indices, lengths)``: for each sub-interval, its ray, its
    flat pixel index and its length, ray by ray and in order along each ray.
    """
    dx, dy = x1 - x0, y1 - y0
    length = np.hypot(dx, dy)
    k = np.arange(1, n_grid)
    ts = np.full((x0.size, 2 * n_grid), np.inf)
    ts[:, 0], ts[:, 1] = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, start, delta in ((2, x0, dx), (n_grid + 1, y0, dy)):
            cand = (k - start[:, None]) / delta[:, None]
            ts[:, col:col + n_grid - 1] = np.where((cand > 0.0) & (cand < 1.0), cand, np.inf)
    ts.sort(axis=1)
    t_a, t_b = ts[:, :-1], ts[:, 1:]
    with np.errstate(invalid="ignore"):
        dt = t_b - t_a
        keep = np.isfinite(t_b) & (dt > _TINY) & (length > _TINY)[:, None]
    rays, seg = np.nonzero(keep)
    dt = dt[rays, seg]
    t_mid = 0.5 * (t_a[rays, seg] + t_b[rays, seg])
    ix = np.clip(np.floor(x0[rays] + t_mid * dx[rays]).astype(int), 0, n_grid - 1)
    iy = np.clip(np.floor(y0[rays] + t_mid * dy[rays]).astype(int), 0, n_grid - 1)
    return rays, iy * n_grid + ix, dt * length[rays]


def build_ray_matrix(n_grid: int, oversampling: int, rng: np.random.Generator) -> np.ndarray:
    """Dense ``(oversampling * n_grid**2, n_grid**2)`` matrix of random-ray rows.

    Chords are drawn one by one with :func:`random_chord`, and a chord of
    length ``<= _TINY`` is redrawn at once, so every row is nonzero.  A
    chord's intersection lengths sum to its length to within about
    ``2 * n_grid * 1e-12`` relative, so this is the rule "redraw a ray whose
    intersection with the grid is (numerically) empty".  The crossings of all
    rays are then computed in one vectorized pass.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    if oversampling < 1:
        raise ValueError("oversampling must be at least 1")
    n_rows = oversampling * n_grid**2
    ends = np.empty((n_rows, 4))
    for r in range(n_rows):
        while True:
            (x0, y0), (x1, y1) = random_chord(n_grid, rng)
            if np.hypot(x1 - x0, y1 - y0) > _TINY:
                ends[r] = x0, y0, x1, y1
                break
    rays, indices, lengths = _ray_crossings(*ends.T, n_grid)
    a = np.zeros((n_rows, n_grid**2))
    a[rays, indices] = lengths
    return a


def radial_phantom(n_grid: int) -> np.ndarray:
    """Smooth nonnegative radial bump over pixel centers, normalized to max 1."""
    centers = np.arange(n_grid) + 0.5
    gx, gy = np.meshgrid(centers, centers, indexing="xy")
    c = n_grid / 2.0
    sigma = n_grid / 4.0
    bump = np.exp(-((gx - c) ** 2 + (gy - c) ** 2) / (2.0 * sigma**2))
    flat = bump.reshape(-1)  # row iy contiguous: index iy * n_grid + ix
    return flat / flat.max()
