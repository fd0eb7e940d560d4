"""Tiny landmark rasters and block-resampling degradation.

Landmark sets are splatted into small grayscale grids that stand in for
face crops; degradation downsamples by an integer factor and upsamples
back with nearest-neighbor replication, destroying fine detail the same
way aggressive image rescaling does.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rotmath import _check_count

__all__ = [
    "Raster",
    "UnknownSchemeError",
    "augment_factor",
    "degrade",
    "degrade_stack",
    "degrade_values",
    "rasterize",
    "rasterize_stack",
    "write_pgm",
]

# Splat footprint: Gaussian with this sigma, truncated at +/- 3 sigma.
SPLAT_SIGMA = 1.0
# rasterize_stack splats at most this many images at a time, so a block's
# profile arrays stay small (about half a megabyte each for 68 points on
# 32 pixels) and in cache.
SPLAT_BLOCK = 32

AUGMENT_SCHEMES = ("fixed10", "uniform1to10", "set5")
SET5_FACTORS = (1, 6, 11, 16, 21)


class UnknownSchemeError(ValueError):
    """Augmentation scheme name not recognized."""


@dataclass(frozen=True, eq=False)
class Raster:
    """Grayscale grid of integer width and height >= 1; values has shape
    (height, width), entries in [0, 1]."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        _check_count("width", self.width, 1)
        _check_count("height", self.height, 1)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.height, self.width):
            raise ValueError(f"values shape {vals.shape} vs (height, width) = "
                             f"({self.height}, {self.width})")
        if not np.all(np.isfinite(vals)):
            raise ValueError("raster values must be finite")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("raster values must lie in [0, 1]")
        object.__setattr__(self, "values", vals.copy())


def rasterize(points2d, width: int, height: int) -> Raster:
    """Splat each (u, v) point as a Gaussian bump, clamped into [0, 1].

    Points whose center falls outside the grid (or is not finite) leave
    no mark.  u indexes columns, v rows.  This is rasterize_stack on a
    stack of one image.
    """
    pts = np.asarray(points2d, dtype=float).reshape(1, -1, 2)
    return Raster(width, height, rasterize_stack(pts, width, height)[0])


def rasterize_stack(points, width: int, height: int) -> np.ndarray:
    """rasterize() of every point set of a (B, N, 2) stack: (B, height, width) values.

    Each bump is truncated to the pixels within ceil(3 sigma) of the
    center's pixel on both axes, so it factors into a column profile times
    a row profile, and image j is one (rows x points) @ (points x columns)
    product.  A point off the grid (or not finite) gets all-zero profiles,
    which add nothing to any pixel's sum.  At most SPLAT_BLOCK images are
    splatted at a time, so the profiles stay small.
    """
    _check_count("width", width, 1)
    _check_count("height", height, 1)
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 2:
        raise ValueError(f"expected a (B, N, 2) stack of points, got shape {points.shape}")
    out = np.empty((len(points), height, width))
    for start in range(0, len(points), SPLAT_BLOCK):
        block = points[start:start + SPLAT_BLOCK]
        u, v = block[..., 0], block[..., 1]
        on_grid = (0.0 <= u) & (u < width) & (0.0 <= v) & (v < height)
        cols = _splat_profiles(u, on_grid, width)
        rows = _splat_profiles(v, on_grid, height)
        np.clip(rows.transpose(0, 2, 1) @ cols, 0.0, 1.0, out=out[start:start + len(block)])
    return out


def _splat_profiles(centers: np.ndarray, on_grid: np.ndarray, size: int) -> np.ndarray:
    """(..., points, size) 1-D splat profiles along one axis, zero beyond the
    window and for the points not on_grid."""
    reach = math.ceil(3.0 * SPLAT_SIGMA)
    pixels = np.arange(size, dtype=float)
    # An off-grid point is splatted at 0 with its window moved off the grid,
    # so huge or non-finite centers never reach the arithmetic.
    window = pixels - np.where(on_grid, np.floor(centers), -reach - 1.0)[..., None]
    profiles = pixels - np.where(on_grid, centers, 0.0)[..., None]
    np.square(profiles, out=profiles)
    profiles /= -2.0 * SPLAT_SIGMA ** 2
    np.exp(profiles, out=profiles)
    profiles[np.abs(window, out=window) > reach] = 0.0
    return profiles


def degrade_values(values: np.ndarray, factor: int) -> np.ndarray:
    """degrade() on a bare 2-D array; returns a new array of equal shape."""
    return degrade_stack(np.asarray(values)[None], [factor])[0]


def degrade_stack(stack, factors) -> np.ndarray:
    """degrade_values() on every image of a (B, H, W) stack, image j by
    factors[j]; returns a new array of equal shape.

    Each output pixel is the top-left pixel of its factor-wide block, so
    the whole stack is one gather, whatever mix of factors it holds.
    """
    stack = np.asarray(stack, dtype=float)
    factors = np.asarray(factors)
    if stack.ndim != 3 or factors.shape != stack.shape[:1]:
        raise ValueError(f"expected a (B, H, W) stack and B factors, got shapes "
                         f"{stack.shape} and {factors.shape}")
    # A bool is no factor, though True would pass the numeric tests as 1.
    valid = (np.isfinite(factors) & (factors >= 1) & (factors == np.floor(factors))
             & (factors.dtype != bool))
    if not valid.all():
        raise ValueError(f"factor must be an integer >= 1, got {factors[~valid][0]}")
    count, height, width = stack.shape
    f = factors.astype(int)[:, None]
    rows = np.arange(height) // f * f
    cols = np.arange(width) // f * f
    index = (np.arange(count)[:, None, None] * height + rows[:, :, None]) * width + cols[:, None, :]
    return np.take(stack, index)


def degrade(r: Raster, factor: int) -> Raster:
    """Nearest-neighbor downsample by factor, then upsample back to size.

    Factor 1 is the identity; degrade is idempotent at a fixed factor.
    """
    return Raster(r.width, r.height, degrade_values(r.values, factor))


def augment_factor(scheme: str, rng_seed) -> int:
    """Draw a degradation factor for a training batch.

    fixed10 always yields 10; uniform1to10 a uniform integer in [1, 10];
    set5 a uniform choice from {1, 6, 11, 16, 21}.  rng_seed may be an
    integer seed or a numpy Generator.
    """
    rng = np.random.default_rng(rng_seed)
    if scheme == "fixed10":
        return 10
    if scheme == "uniform1to10":
        return int(rng.integers(1, 11))
    if scheme == "set5":
        return int(SET5_FACTORS[rng.integers(0, len(SET5_FACTORS))])
    raise UnknownSchemeError(f"unknown augmentation scheme {scheme!r}; "
                             f"known: {', '.join(AUGMENT_SCHEMES)}")


def write_pgm(r: Raster, path) -> None:
    """Export as ASCII PGM (P2, maxval 255) for eyeballing."""
    gray = np.clip(np.rint(r.values * 255.0), 0, 255).astype(int)
    lines = ["P2", f"{r.width} {r.height}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in gray)
    Path(path).write_text("\n".join(lines) + "\n")
