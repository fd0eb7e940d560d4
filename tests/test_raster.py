import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselab.raster import (
    AUGMENT_SCHEMES,
    SET5_FACTORS,
    SPLAT_BLOCK,
    SPLAT_SIGMA,
    Raster,
    UnknownSchemeError,
    augment_factor,
    degrade,
    degrade_stack,
    degrade_values,
    rasterize,
    rasterize_stack,
    write_pgm,
)


def rasterize_loop(points2d, width, height):
    """Reference splat: one truncated 2-D Gaussian per point, in a Python loop."""
    pts = np.asarray(points2d, dtype=float).reshape(-1, 2)
    vals = np.zeros((height, width))
    reach = int(math.ceil(3.0 * SPLAT_SIGMA))
    for u, v in pts:
        if not (0.0 <= u < width and 0.0 <= v < height):
            continue
        col_lo = max(int(math.floor(u)) - reach, 0)
        col_hi = min(int(math.floor(u)) + reach + 1, width)
        row_lo = max(int(math.floor(v)) - reach, 0)
        row_hi = min(int(math.floor(v)) + reach + 1, height)
        cols = np.arange(col_lo, col_hi)
        rows = np.arange(row_lo, row_hi)
        sq = (cols[None, :] - u) ** 2 + (rows[:, None] - v) ** 2
        vals[row_lo:row_hi, col_lo:col_hi] += np.exp(-sq / (2.0 * SPLAT_SIGMA ** 2))
    return np.clip(vals, 0.0, 1.0)


def _oracle_cases():
    """{name: (points, width, height)} for the loop-vs-rasterize check."""
    rng = np.random.default_rng(20)
    cases = []
    for i in range(40):
        # 68 points, some off the grid on every side
        cases.append((f"random-{i}", rng.uniform(-4.0, 36.0, size=(68, 2)), 32, 32))
    pts = rng.uniform(0.0, 32.0, size=(68, 2))
    pts[::5, 0] = np.nan
    pts[1::7, 1] = np.inf
    pts[2::9, 0] = -np.inf
    pts[3::11] = np.nan
    cases.append(("nan-inf", pts, 32, 32))
    w, h = 12, 9
    edges = [0.0, w - 1e-12, w, 5.5]
    cases.append(("edges-u", [[u, 4.25] for u in edges], w, h))
    cases.append(("edges-v", [[5.25, v] for v in [0.0, h - 1e-12, h, 4.5]], w, h))
    cases.append(("corners", [[0.0, 0.0], [w - 1e-12, h - 1e-12], [0.0, h - 1e-12],
                              [w - 1e-12, 0.0]], w, h))
    for width, height in ((7, 19), (19, 7)):
        cases.append((f"{width}x{height}", rng.uniform(-2.0, 21.0, size=(68, 2)), width, height))
    cases.append(("1x1", [[0.0, 0.0], [0.5, 0.999], [1.0, 0.5], [0.3, 0.2]], 1, 1))
    cases.append(("1x1-miss", [[1.0, 0.0], [-0.1, 0.5]], 1, 1))
    cases.append(("empty", np.zeros((0, 2)), 32, 32))
    # windows cut off by the left, right, top and bottom borders
    cases.append(("border-clip", [[0.4, 10.3], [15.7, 6.1], [8.2, 0.6], [3.9, 11.8],
                                  [1.5, 1.5], [14.5, 10.5]], 16, 12))
    # dense clusters whose sum passes 1 and clips, next to unclipped tails
    cluster = np.array([10.3, 9.7]) + rng.normal(scale=0.6, size=(68, 2))
    cases.append(("dense", cluster, 20, 20))
    return {name: (points, width, height) for name, points, width, height in cases}


ORACLE_CASES = _oracle_cases()


class TestRasterizeMatchesLoop:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_reference_loop(self, name):
        points, width, height = ORACLE_CASES[name]
        got = rasterize(points, width, height).values
        np.testing.assert_allclose(got, rasterize_loop(points, width, height),
                                   atol=1e-15, rtol=0)

    def test_dense_case_reaches_clip(self):
        points, width, height = ORACLE_CASES["dense"]
        ref = rasterize_loop(points, width, height)
        assert ref.max() == 1.0 and ((0.0 < ref) & (ref < 1.0)).any()
        assert rasterize(points, width, height).values.max() == 1.0


def splat_on_grid_only(points2d, width, height):
    """The separable splat over the on-grid points alone, dropping the rest."""
    pts = np.asarray(points2d, dtype=float).reshape(-1, 2)
    u, v = pts[:, 0], pts[:, 1]
    keep = (0.0 <= u) & (u < width) & (0.0 <= v) & (v < height)
    reach = math.ceil(3.0 * SPLAT_SIGMA)

    def profiles(centers, size):
        pixels = np.arange(size)
        out = np.exp(-(pixels - centers[:, None]) ** 2 / (2.0 * SPLAT_SIGMA ** 2))
        out[np.abs(pixels - np.floor(centers)[:, None]) > reach] = 0.0
        return out

    return np.clip(profiles(v[keep], height).T @ profiles(u[keep], width), 0.0, 1.0)


def stack_with_bad_points(count, n, size, seed):
    """(count, n, 2) points over and around a size x size grid, with NaN,
    +-inf and huge off-grid coordinates mixed in."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4.0, size + 4.0, size=(count, n, 2))
    for value in (np.nan, np.inf, -np.inf, 1e300, -1e300, 1e200):
        image = rng.integers(0, count, size=count // 3)
        point = rng.integers(0, n, size=count // 3)
        pts[image, point, rng.integers(0, 2, size=count // 3)] = value
    return pts


@pytest.mark.filterwarnings("error")
class TestRasterizeStack:
    @pytest.mark.parametrize("width, height", [(32, 32), (7, 19), (19, 7), (1, 5), (1, 1)])
    def test_matches_per_image_rasterize(self, width, height):
        pts = stack_with_bad_points(2 * SPLAT_BLOCK + 5, 68, max(width, height), seed=width)
        got = rasterize_stack(pts, width, height)
        assert got.shape == (len(pts), height, width)
        for image, points in zip(got, pts):
            assert np.array_equal(image, rasterize(points, width, height).values)

    def test_off_grid_points_add_nothing(self):
        # Zero profiles in the product give the bits of the on-grid points
        # splatted alone, on the grid size the low-resolution study uses.
        pts = stack_with_bad_points(SPLAT_BLOCK + 9, 68, 32, seed=4)
        got = rasterize_stack(pts, 32, 32)
        for image, points in zip(got, pts):
            assert np.array_equal(image, splat_on_grid_only(points, 32, 32))
            np.testing.assert_allclose(image, rasterize_loop(points, 32, 32), atol=1e-15, rtol=0)

    def test_empty_stacks(self):
        assert rasterize_stack(np.zeros((0, 68, 2)), 8, 6).shape == (0, 6, 8)
        assert not rasterize_stack(np.zeros((3, 0, 2)), 8, 6).any()

    @pytest.mark.parametrize("shape", [(68, 2), (2, 68, 3), (2, 68)])
    def test_rejects_non_stack(self, shape):
        with pytest.raises(ValueError, match="stack"):
            rasterize_stack(np.zeros(shape), 8, 8)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="^height must be an integer >= 1, got 0$"):
            rasterize_stack(np.zeros((1, 3, 2)), 8, 0)


@pytest.mark.parametrize("argument", ["width", "height"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, 0, -1])
def test_sizes_must_be_integers(argument, value):
    # A float, even a whole one, or a bool is no raster size: each entry
    # point rejects it with a ValueError naming the argument.
    sizes = {"width": 3, "height": 3, argument: value}
    message = f"^{argument} must be an integer >= 1, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        rasterize(np.zeros((1, 2)), **sizes)
    with pytest.raises(ValueError, match=message):
        rasterize_stack(np.zeros((1, 1, 2)), **sizes)
    with pytest.raises(ValueError, match=message):
        Raster(values=np.zeros((3, 3)), **sizes)


def test_numpy_integer_sizes_accepted():
    r = rasterize(np.array([[1.0, 0.0]]), np.int64(3), np.int32(2))
    assert r.values.shape == (2, 3)
    assert np.array_equal(r.values, rasterize(np.array([[1.0, 0.0]]), 3, 2).values)


class TestRaster:
    def test_validation(self):
        with pytest.raises(ValueError):
            Raster(0, 4, np.zeros((4, 0)))
        with pytest.raises(ValueError):
            Raster(4, 4, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            Raster(2, 2, np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            Raster(2, 2, np.full((2, 2), np.nan))

    def test_values_copied(self):
        v = np.zeros((2, 2))
        r = Raster(2, 2, v)
        v[0, 0] = 1.0
        assert r.values[0, 0] == 0.0


class TestRasterize:
    def test_no_points_gives_zeros(self):
        r = rasterize(np.zeros((0, 2)), 8, 8)
        assert r.values.shape == (8, 8)
        assert not r.values.any()

    def test_peak_at_point(self):
        r = rasterize(np.array([[4.0, 2.0]]), 9, 7)
        assert r.values[2, 4] == pytest.approx(1.0)
        assert r.values[2, 4] == r.values.max()

    def test_bump_decays_with_distance(self):
        r = rasterize(np.array([[4.0, 4.0]]), 9, 9)
        assert r.values[4, 4] > r.values[4, 5] > r.values[4, 6] > r.values[4, 7]
        # splat support ends 3 sigma out
        assert r.values[4, 8] == 0.0

    def test_out_of_bounds_points_skipped(self):
        inside = rasterize(np.array([[4.0, 4.0]]), 9, 9)
        both = rasterize(np.array([[4.0, 4.0], [-1.0, 4.0], [4.0, 9.0]]), 9, 9)
        assert np.array_equal(inside.values, both.values)

    def test_overlapping_points_clip_to_one(self):
        pts = np.tile([[4.0, 4.0]], (5, 1))
        r = rasterize(pts, 9, 9)
        assert r.values.max() == 1.0

    def test_deterministic(self):
        pts = np.random.default_rng(0).uniform(0, 16, size=(20, 2))
        assert np.array_equal(rasterize(pts, 16, 16).values, rasterize(pts, 16, 16).values)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            rasterize(np.zeros((1, 2)), 0, 4)


class TestDegrade:
    def test_factor_one_is_identity(self):
        v = np.random.default_rng(1).uniform(size=(16, 16))
        out = degrade_values(v, 1)
        assert np.array_equal(out, v)
        assert out is not v

    def test_block_replication(self):
        v = np.arange(36.0).reshape(6, 6) / 36.0
        out = degrade_values(v, 3)
        assert out.shape == (6, 6)
        # every 3x3 block holds the value of its top-left source pixel
        for r in range(6):
            for c in range(6):
                assert out[r, c] == v[(r // 3) * 3, (c // 3) * 3]

    def test_factor_larger_than_grid(self):
        v = np.random.default_rng(2).uniform(size=(4, 4))
        out = degrade_values(v, 9)
        assert np.all(out == v[0, 0])

    def test_distinct_values_bounded(self):
        v = np.random.default_rng(3).uniform(size=(32, 32))
        out = degrade_values(v, 15)
        assert len(np.unique(out)) <= 9  # ceil(32/15) = 3 kept samples per axis

    def test_idempotent(self):
        v = np.random.default_rng(4).uniform(size=(32, 32))
        once = degrade_values(v, 5)
        assert np.array_equal(degrade_values(once, 5), once)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20)
    def test_shape_and_range_preserved(self, factor):
        v = np.random.default_rng(5).uniform(size=(13, 9))
        out = degrade_values(v, factor)
        assert out.shape == v.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_raster_wrapper(self):
        r = rasterize(np.array([[8.0, 8.0]]), 16, 16)
        d = degrade(r, 4)
        assert isinstance(d, Raster)
        assert d.width == 16 and d.height == 16
        assert np.array_equal(d.values, degrade_values(r.values, 4))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            degrade_values(np.zeros((4, 4)), 0)
        with pytest.raises(ValueError):
            degrade_values(np.zeros((4, 4)), -2)
        with pytest.raises(ValueError):
            degrade_values(np.zeros((4, 4)), True)

    def test_information_loss_grows_with_factor(self):
        # averaged over many point sets, heavier degradation moves the
        # image further from the original
        rng = np.random.default_rng(6)
        factors = (1, 5, 10, 15)
        dist = {f: 0.0 for f in factors}
        for _ in range(60):
            pts = rng.uniform(0, 32, size=(68, 2))
            v = rasterize(pts, 32, 32).values
            for f in factors:
                dist[f] += float(np.linalg.norm(v - degrade_values(v, f)))
        assert dist[1] == 0.0
        assert dist[1] < dist[5] < dist[10] < dist[15]


class TestDegradeStack:
    def test_matches_per_image_loop(self):
        rng = np.random.default_rng(7)
        stack = rng.uniform(size=(12, 13, 9))
        factors = [1, 2, 3, 5, 9, 14, 1, 3, 3, 7, 2, 20]
        want = np.stack([degrade_values(image, f) for image, f in zip(stack, factors)])
        got = degrade_stack(stack, factors)
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, stack)

    @pytest.mark.parametrize("factors", [[1, 2], [1, 2, 3, 4], [1, 0, 2], [1, 2.5, 2],
                                         [1, math.nan, 2], [1, math.inf, 2], [True, True, True]])
    def test_rejects_bad_factors(self, factors):
        with pytest.raises(ValueError):
            degrade_stack(np.zeros((3, 4, 4)), factors)


class TestAugmentFactor:
    def test_fixed10(self):
        assert augment_factor("fixed10", 0) == 10
        assert augment_factor("fixed10", 12345) == 10

    def test_uniform_range_and_coverage(self):
        seen = {augment_factor("uniform1to10", s) for s in range(300)}
        assert seen <= set(range(1, 11))
        assert len(seen) == 10

    def test_set5_membership(self):
        seen = {augment_factor("set5", s) for s in range(200)}
        assert seen <= set(SET5_FACTORS)
        assert len(seen) == 5

    def test_deterministic_per_seed(self):
        assert augment_factor("uniform1to10", 42) == augment_factor("uniform1to10", 42)

    def test_accepts_generator(self):
        rng = np.random.default_rng(0)
        f = augment_factor("set5", rng)
        assert f in SET5_FACTORS

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            augment_factor("blur", 0)

    def test_scheme_catalog(self):
        assert AUGMENT_SCHEMES == ("fixed10", "uniform1to10", "set5")


class TestWritePgm:
    def test_plain_pgm_structure(self, tmp_path):
        r = rasterize(np.array([[8.0, 8.0], [3.0, 12.0]]), 16, 16)
        path = tmp_path / "out.pgm"
        write_pgm(r, path)
        tokens = path.read_text().split()
        assert tokens[0] == "P2"
        assert tokens[1] == "16" and tokens[2] == "16"
        assert tokens[3] == "255"
        pixels = [int(t) for t in tokens[4:]]
        assert len(pixels) == 256
        assert max(pixels) == 255  # the unit peak maps to full white
        assert min(pixels) >= 0

    def test_gray_levels_scaled(self, tmp_path):
        r = Raster(2, 1, np.array([[0.0, 0.5]]))
        path = tmp_path / "out.pgm"
        write_pgm(r, path)
        pixels = [int(t) for t in path.read_text().split()[4:]]
        assert pixels == [0, 128]  # round(0.5 * 255)
