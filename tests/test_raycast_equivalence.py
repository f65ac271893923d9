"""The clearance-skipping ray march against the per-step march.

``raycast_batch`` jumps over samples that the clearance around a ray's
cell proves free.  It must return exactly the bytes of the march that
evaluates every sample, kept here as the reference, also on inputs the
localizer never produces: points on and just below cell edges, starts in
walls or off the map, and ranges that are zero, not a multiple of the
step, or longer than the map.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import InputSize
from repro.core import inputs
from repro.core.inputs import raycast_batch, robot_world
from repro.localization import localize

#: tracemalloc peak allowed for one CIF global localization.
LOCALIZE_PEAK_BYTES = 4_000_000

AXIS_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi)


def _loop_raycast(grid, x, y, angles, max_range, step=0.25):
    """Reference: advance every live ray one ``step`` per iteration."""
    rows, cols = grid.shape
    n = x.size
    dist = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    cos_t = np.cos(angles)
    sin_t = np.sin(angles)
    n_steps = int(max_range / step) + 1
    for _ in range(n_steps):
        if not alive.any():
            break
        px = x[alive] + dist[alive] * cos_t[alive]
        py = y[alive] + dist[alive] * sin_t[alive]
        inside = (px >= 0) & (px < cols) & (py >= 0) & (py < rows)
        hit = np.zeros(inside.shape, dtype=bool)
        if inside.any():
            gx = px[inside].astype(np.int64)
            gy = py[inside].astype(np.int64)
            occupied = grid[gy, gx] != 0
            hit[np.nonzero(inside)[0][occupied]] = True
        done = hit | ~inside
        alive_idx = np.nonzero(alive)[0]
        alive[alive_idx[done]] = False
        dist[alive_idx[~done]] += step
    return np.minimum(dist, max_range)


def _walled(rows, cols):
    grid = np.zeros((rows, cols), dtype=np.int8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 1
    return grid


def _random_grid(rng, rows, cols, density=0.05):
    return (rng.random((rows, cols)) < density).astype(np.int8)


def _edge_points(rng, rows, cols, n):
    """Points on integer cell edges and one ulp below them."""
    x = rng.integers(0, cols + 1, n).astype(np.float64)
    y = rng.integers(0, rows + 1, n).astype(np.float64)
    below = rng.random(n) < 0.5
    x[below] = np.nextafter(x[below], -np.inf)
    below = rng.random(n) < 0.5
    y[below] = np.nextafter(y[below], -np.inf)
    return x, y


def _angles(rng, n):
    angles = rng.uniform(-math.pi, math.pi, n)
    axis = rng.random(n) < 0.3
    angles[axis] = rng.choice(AXIS_ANGLES, int(axis.sum()))
    return angles


def _assert_same_bytes(grid, x, y, angles, max_range, step=0.25):
    got = raycast_batch(grid, x, y, angles, max_range, step)
    want = _loop_raycast(grid, x, y, angles, max_range, step)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _grids():
    rng = np.random.default_rng(7)
    yield "walled", _walled(24, 24)
    yield "walled_wide", _walled(17, 41)
    yield "no_walls", np.zeros((30, 30), dtype=np.int8)
    for i in range(3):
        yield f"random5pct_{i}", _random_grid(rng, 20 + 7 * i, 33 - 5 * i)


GRIDS = dict(_grids())


def _ranges(grid):
    side = max(grid.shape)
    return (0.0, 0.1, 3.0, float(side), 2.0 * side)


@pytest.mark.parametrize("name", sorted(GRIDS))
class TestSameBytesAsLoop:
    def test_edge_points(self, name):
        grid = GRIDS[name]
        rng = np.random.default_rng(11)
        rows, cols = grid.shape
        x, y = _edge_points(rng, rows, cols, 2000)
        angles = _angles(rng, x.size)
        for max_range in _ranges(grid):
            _assert_same_bytes(grid, x, y, angles, max_range)

    def test_axis_angles_from_free_points(self, name):
        grid = GRIDS[name]
        rng = np.random.default_rng(12)
        free_r, free_c = np.nonzero(grid == 0)
        picks = rng.integers(0, free_r.size, 400)
        x = np.repeat(free_c[picks] + rng.random(picks.size), 4)
        y = np.repeat(free_r[picks] + rng.random(picks.size), 4)
        angles = np.tile(AXIS_ANGLES, picks.size)
        for max_range in _ranges(grid):
            _assert_same_bytes(grid, x, y, angles, max_range)

    def test_starts_in_walls_and_off_the_map(self, name):
        grid = GRIDS[name]
        rng = np.random.default_rng(13)
        rows, cols = grid.shape
        occ_r, occ_c = np.nonzero(grid)
        picks = rng.permutation(occ_r.size)[:200]
        x = np.concatenate([
            occ_c[picks] + rng.random(picks.size),
            rng.uniform(-3 * cols, 4 * cols, 300),
            [-1e-300, -0.5, float(cols), 0.5, 1e9],
        ])
        y = np.concatenate([
            occ_r[picks] + rng.random(picks.size),
            rng.uniform(-3 * rows, 4 * rows, 300),
            [0.5, 0.5, 0.5, -0.0, 0.5],
        ])
        angles = _angles(rng, x.size)
        for max_range in _ranges(grid):
            _assert_same_bytes(grid, x, y, angles, max_range)

    @pytest.mark.parametrize("step", [0.5, 1.0])
    def test_other_dyadic_steps(self, name, step):
        grid = GRIDS[name]
        rng = np.random.default_rng(14)
        rows, cols = grid.shape
        x = rng.uniform(0, cols, 1000)
        y = rng.uniform(0, rows, 1000)
        angles = _angles(rng, x.size)
        for max_range in _ranges(grid):
            _assert_same_bytes(grid, x, y, angles, max_range, step)


def test_localizer_rays_on_every_world_size():
    rng = np.random.default_rng(15)
    for size in InputSize:
        world = robot_world(size, 0, n_steps=2)
        free_r, free_c = np.nonzero(world.grid == 0)
        picks = rng.integers(0, free_r.size, 3000)
        x = free_c[picks] + rng.random(picks.size)
        y = free_r[picks] + rng.random(picks.size)
        angles = rng.uniform(-math.pi, math.pi, picks.size)
        _assert_same_bytes(world.grid, x, y, angles, world.max_range)


def test_no_rays():
    empty = np.zeros(0)
    _assert_same_bytes(_walled(10, 10), empty, empty, empty, 10.0)


def test_one_sample_too_far_is_caught(monkeypatch):
    """A march that jumps ``4r + 1`` samples from a cell with ``r`` free
    rings skips the sample at distance ``r``.  That sample is free in
    exact arithmetic, but one ulp below a cell edge it rounds into the
    next cell, which is a wall here; the edge-point cases must see it."""
    grid = np.zeros((9, 9), dtype=np.int8)
    grid[:, 1] = grid[:, 5] = 1  # column 3 has one free ring
    x = np.array([np.nextafter(4.0, 0.0)])  # in column 3, +1.0 lands on 5.0
    y = np.array([4.5])
    angles = np.array([0.0])
    _assert_same_bytes(grid, x, y, angles, 9.0)
    assert raycast_batch(grid, x, y, angles, 9.0)[0] == 1.0

    real = inputs._jump_table

    def one_too_far(grid, step):
        jumps = real(grid, step)
        return np.where(jumps > 1, jumps + 1, jumps)

    monkeypatch.setattr(inputs, "_jump_table", one_too_far)
    assert raycast_batch(grid, x, y, angles, 9.0)[0] == 1.25
    with pytest.raises(AssertionError):
        TestSameBytesAsLoop().test_edge_points("walled")


def test_localize_peak_memory():
    world = robot_world(InputSize.CIF, 0, n_steps=48)
    tracemalloc.start()
    try:
        localize(world, seed=0, mode="global")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LOCALIZE_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"
