"""Pixel geometry, defined once for grids, phase patterns and maps.

A (ny, nx) pixel array over a rectangle has pitch extent / n per axis, and
coordinates refer to pixel centers, pixel (0, 0) at the most negative corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import GridMismatchError, ParameterError

# largest pitch or origin difference, in meters, of two grids held to be one
SAME_GRID_TOL = 1e-12

# matrix-text header keys of pitch (x, y) and origin (x, y), in meters
PIXEL_HEADER_KEYS = ("pitch_x_m", "pitch_y_m", "origin_x_m", "origin_y_m")


def pixel_geometry(
    shape: Tuple[int, int],
    extent: Tuple[float, float],
    center: Tuple[float, float] = (0.0, 0.0),
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """(pitch, origin) of a (ny, nx) pixel array covering an (x, y) extent
    centered on center; origin is the center of pixel (0, 0)."""
    ny, nx = shape
    px, py = extent[0] / nx, extent[1] / ny
    origin = (center[0] - extent[0] / 2 + px / 2, center[1] - extent[1] / 2 + py / 2)
    return (px, py), origin


class PixelGrid:
    """Pixel centers, header entries and grid comparison of a subclass's
    shape (ny, nx), pitch (px, py) and origin (center of pixel (0, 0)),
    which every subclass checks and stores through _set_pixels."""

    def _set_pixels(self, what: str, pitch, origin) -> None:
        """Store pitch and origin as pairs of floats, after checking that
        pitch is two finite positive lengths and origin two finite
        coordinates (ParameterError naming what otherwise)."""
        if len(pitch) != 2 or not all(0 < p < np.inf for p in pitch):
            raise ParameterError(f"{what} pitch must be two finite positive lengths")
        if len(origin) != 2 or not all(np.isfinite(o) for o in origin):
            raise ParameterError(f"{what} origin must be two finite coordinates")
        object.__setattr__(self, "pitch", (float(pitch[0]), float(pitch[1])))
        object.__setattr__(self, "origin", (float(origin[0]), float(origin[1])))

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + self.pitch[0] * np.arange(self.shape[1])

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + self.pitch[1] * np.arange(self.shape[0])

    def pixel_header(self) -> dict:
        """Pitch and origin as matrix-text header entries, in meters."""
        values = (*self.pitch, *self.origin)
        return {key: f"{val:.17g}" for key, val in zip(PIXEL_HEADER_KEYS, values)}

    def check_same_grid(self, other: "PixelGrid") -> None:
        """Raise GridMismatchError unless other has this shape, and this pitch
        and origin to within SAME_GRID_TOL."""
        if self.shape != other.shape:
            raise GridMismatchError(f"shape mismatch: {self.shape} vs {other.shape}")
        for what in ("pitch", "origin"):
            a, b = getattr(self, what), getattr(other, what)
            if any(abs(x - y) > SAME_GRID_TOL for x, y in zip(a, b)):
                raise GridMismatchError(f"{what} mismatch: {a} vs {b}")


@dataclass(frozen=True)
class GridSpec(PixelGrid):
    """Pixel grid over a rectangle of the detection plane.

    nx, ny: pixel counts along x and y, at least 2 each.
    extent_x, extent_y: full physical widths in meters.
    center: (cx, cy) of the rectangle in meters.
    """

    nx: int
    ny: int
    extent_x: float
    extent_y: float
    center: Tuple[float, float] = (0.0, 0.0)
    # derived from the fields above
    pitch: Tuple[float, float] = field(init=False, repr=False)
    origin: Tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ParameterError("grids need at least 2 pixels per axis")
        if not (self.extent_x > 0 and self.extent_y > 0):
            raise ParameterError("grid extents must be positive")
        if len(self.center) != 2 or not all(np.isfinite(c) for c in self.center):
            raise ParameterError("grid center must be two finite coordinates")
        extent = (self.extent_x, self.extent_y)
        self._set_pixels("grid", *pixel_geometry(self.shape, extent, self.center))

    @property
    def shape(self) -> Tuple[int, int]:
        return self.ny, self.nx
