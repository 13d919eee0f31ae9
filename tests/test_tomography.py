import numpy as np
import pytest

from blockkaczmarz.tomography import (
    _TINY,
    boundary_point,
    build_ray_matrix,
    line_pixel_intersections,
    radial_phantom,
    random_chord,
)


def brute_force_lengths(p0, p1, n_grid, samples=200000):
    """Monte Carlo oracle: fraction of the segment inside each pixel times its length."""
    p0 = np.asarray(p0)
    p1 = np.asarray(p1)
    ts = (np.arange(samples) + 0.5) / samples
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    ix = np.clip(np.floor(pts[:, 0]).astype(int), 0, n_grid - 1)
    iy = np.clip(np.floor(pts[:, 1]).astype(int), 0, n_grid - 1)
    flat = iy * n_grid + ix
    length = np.linalg.norm(p1 - p0)
    out = np.zeros(n_grid * n_grid)
    np.add.at(out, flat, length / samples)
    return out


def scalar_intersections(p0, p1, n_grid):
    """Reference: the crossing construction for one segment, one
    sub-interval at a time."""
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    length = float(np.hypot(dx, dy))
    if length <= _TINY:
        return np.empty(0, dtype=int), np.empty(0)
    ts = [0.0, 1.0]
    k = np.arange(1, n_grid)
    for start, delta in ((x0, dx), (y0, dy)):
        if delta != 0.0:
            cand = (k - start) / delta
            ts.extend(cand[(cand > 0.0) & (cand < 1.0)].tolist())
    ts = np.array(sorted(ts))
    indices, lengths = [], []
    for t_a, t_b in zip(ts[:-1], ts[1:]):
        dt = t_b - t_a
        if dt <= _TINY:
            continue
        t_mid = 0.5 * (t_a + t_b)
        ix = min(max(int(np.floor(x0 + t_mid * dx)), 0), n_grid - 1)
        iy = min(max(int(np.floor(y0 + t_mid * dy)), 0), n_grid - 1)
        indices.append(iy * n_grid + ix)
        lengths.append(dt * length)
    return np.array(indices, dtype=int), np.array(lengths)


def per_ray_matrix(n_grid, oversampling, rng):
    """Reference: the ray matrix built one ray at a time, redrawing a chord
    while its intersection with the grid is empty."""
    a = np.zeros((oversampling * n_grid**2, n_grid**2))
    for r in range(a.shape[0]):
        while True:
            p0, p1 = random_chord(n_grid, rng)
            idx, lengths = scalar_intersections(p0, p1, n_grid)
            if lengths.size and lengths.sum() > _TINY:
                a[r, idx] = lengths
                break
    return a


class TestLineIntersections:
    def test_axis_aligned_through_pixel_row(self):
        idx, lengths = line_pixel_intersections((0.0, 0.5), (2.0, 0.5), 2)
        assert sorted(idx.tolist()) == [0, 1]
        np.testing.assert_allclose(lengths, [1.0, 1.0], atol=1e-12)

    def test_main_diagonal(self):
        idx, lengths = line_pixel_intersections((0.0, 0.0), (2.0, 2.0), 2)
        assert sorted(idx.tolist()) == [0, 3]
        np.testing.assert_allclose(lengths, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-12)

    def test_vertical_line(self):
        idx, lengths = line_pixel_intersections((1.5, 0.0), (1.5, 3.0), 3)
        assert sorted(idx.tolist()) == [1, 4, 7]
        np.testing.assert_allclose(lengths, [1.0, 1.0, 1.0], atol=1e-12)

    def test_degenerate_segment(self):
        idx, lengths = line_pixel_intersections((1.0, 1.0), (1.0, 1.0), 3)
        assert idx.size == 0 and lengths.size == 0

    def test_total_length_preserved(self, rng):
        for _ in range(30):
            p0, p1 = random_chord(7, rng)
            idx, lengths = line_pixel_intersections(p0, p1, 7)
            seg = np.hypot(p1[0] - p0[0], p1[1] - p0[1])
            assert lengths.sum() == pytest.approx(seg, rel=1e-10, abs=1e-12)
            assert np.all(lengths > 0)
            assert np.unique(idx).size == idx.size

    def test_matches_monte_carlo_oracle(self, rng):
        for seed in range(3):
            p0, p1 = random_chord(5, np.random.default_rng(seed))
            idx, lengths = line_pixel_intersections(p0, p1, 5)
            dense = np.zeros(25)
            dense[idx] = lengths
            oracle = brute_force_lengths(p0, p1, 5)
            assert np.max(np.abs(dense - oracle)) <= 2e-3 * max(lengths.sum(), 1.0)


    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        chords = [random_chord(n, rng) + (n,) for n in (2, 3, 7) for _ in range(40)]
        chords += [((0.0, 1.0), (3.0, 1.0), 3), ((1.0, 0.0), (1.0, 3.0), 3), ((0.0, 0.0), (3.0, 3.0), 3)]
        for p0, p1, n in chords:
            idx, lengths = line_pixel_intersections(p0, p1, n)
            ref_idx, ref_lengths = scalar_intersections(p0, p1, n)
            assert np.array_equal(idx, ref_idx)
            assert lengths.tobytes() == ref_lengths.tobytes()


class TestChordSampling:
    def test_boundary_point_edges(self):
        n = 4
        assert boundary_point(0, 0.5, n) == (2.0, 0.0)
        assert boundary_point(1, 0.25, n) == (4.0, 1.0)
        assert boundary_point(2, 1.0, n) == (4.0, 4.0)
        assert boundary_point(3, 0.0, n) == (0.0, 0.0)
        with pytest.raises(ValueError):
            boundary_point(4, 0.5, n)

    def test_chord_endpoints_on_distinct_edges(self, rng):
        n = 6

        def edge_of(pt):
            x, y = pt
            edges = set()
            if y == 0.0:
                edges.add(0)
            if x == float(n):
                edges.add(1)
            if y == float(n):
                edges.add(2)
            if x == 0.0:
                edges.add(3)
            return edges

        for _ in range(200):
            p0, p1 = random_chord(n, rng)
            e0, e1 = edge_of(p0), edge_of(p1)
            assert e0 and e1
            # distinct edges up to the measure-zero corner overlap
            assert not (e0 & e1) or (len(e0) > 1 or len(e1) > 1)


class TestBuildRayMatrix:
    def test_shape_and_positivity(self, rng):
        a = build_ray_matrix(4, 2, rng)
        assert a.shape == (32, 16)
        assert np.all(a >= 0)
        assert np.all(np.isfinite(a))
        assert np.all(a.sum(axis=1) > 0)

    def test_row_sums_bounded_by_diagonal(self, rng):
        a = build_ray_matrix(6, 3, rng)
        assert np.all(a.sum(axis=1) <= 6 * np.sqrt(2.0) + 1e-9)

    def test_deterministic_for_seed(self):
        a1 = build_ray_matrix(4, 1, np.random.default_rng(3))
        a2 = build_ray_matrix(4, 1, np.random.default_rng(3))
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize(
        "n_grid, oversampling, seed",
        [(20, 3, seed) for seed in range(10)] + [(n, f, seed) for n in (2, 3) for f in (1, 3) for seed in range(10)],
    )
    def test_batched_matches_per_ray_loop(self, n_grid, oversampling, seed):
        a = build_ray_matrix(n_grid, oversampling, np.random.default_rng(seed))
        ref = per_ray_matrix(n_grid, oversampling, np.random.default_rng(seed))
        assert a.tobytes() == ref.tobytes()

    def test_bad_args(self, rng):
        with pytest.raises(ValueError):
            build_ray_matrix(1, 2, rng)
        with pytest.raises(ValueError):
            build_ray_matrix(4, 0, rng)


class TestRadialPhantom:
    def test_range_and_peak(self):
        x = radial_phantom(9)
        assert x.shape == (81,)
        assert np.all(x >= 0) and x.max() == pytest.approx(1.0)
        grid = x.reshape(9, 9)
        assert grid[4, 4] > grid[0, 0]
        # radial symmetry of the bump
        assert grid[0, 0] == pytest.approx(grid[8, 8], rel=1e-12)
