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

__all__ = [
    "Raster",
    "UnknownSchemeError",
    "augment_factor",
    "degrade",
    "degrade_values",
    "rasterize",
    "write_pgm",
]

# Splat footprint: Gaussian with this sigma, truncated at +/- 3 sigma.
SPLAT_SIGMA = 1.0

AUGMENT_SCHEMES = ("fixed10", "uniform1to10", "set5")
SET5_FACTORS = (1, 6, 11, 16, 21)


class UnknownSchemeError(ValueError):
    """Augmentation scheme name not recognized."""


@dataclass(frozen=True, eq=False)
class Raster:
    """Grayscale grid; values has shape (height, width), entries in [0, 1]."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {self.width}x{self.height}")
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

    Points whose center falls outside the grid (or is not finite) are
    skipped.  u indexes columns, v rows.  Each bump is truncated to the
    pixels within ceil(3 sigma) of the center's pixel on both axes, so it
    factors into a column profile times a row profile and the whole image
    is one (rows x points) @ (points x columns) product.
    """
    if width < 1 or height < 1:
        raise ValueError(f"raster dimensions must be >= 1, got {width}x{height}")
    pts = np.asarray(points2d, dtype=float).reshape(-1, 2)
    u, v = pts[:, 0], pts[:, 1]
    on_grid = (0.0 <= u) & (u < width) & (0.0 <= v) & (v < height)
    cols = _splat_profiles(u[on_grid], width)
    rows = _splat_profiles(v[on_grid], height)
    return Raster(width, height, np.clip(rows.T @ cols, 0.0, 1.0))


def _splat_profiles(centers: np.ndarray, size: int) -> np.ndarray:
    """(points, size) 1-D splat profiles along one axis, zero beyond the window."""
    reach = math.ceil(3.0 * SPLAT_SIGMA)
    pixels = np.arange(size)
    profiles = np.exp(-(pixels - centers[:, None]) ** 2 / (2.0 * SPLAT_SIGMA ** 2))
    profiles[np.abs(pixels - np.floor(centers)[:, None]) > reach] = 0.0
    return profiles


def degrade_values(values: np.ndarray, factor: int) -> np.ndarray:
    """degrade() on a bare 2-D array; returns a new array of equal shape."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    if factor == 1:
        return np.array(values, dtype=float)
    down = values[::factor, ::factor]
    rows = np.arange(values.shape[0]) // factor
    cols = np.arange(values.shape[1]) // factor
    return down[rows[:, None], cols[None, :]]


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
