"""Coincidence-map experiments: ghost interference and ghost imaging.

Ghost interference: a double slit in the object plane, no lens; the
coincidence amplitude is the sum of the two-photon amplitude over the slit
positions, one factor per plane axis (a finite slit's mean over its opening
is an erf difference in closed form, ``biphoton.axis_opening_mean``), and
the map is its squared magnitude over the far plane.

Ghost imaging: a polarization-sensitive phase pattern in the object plane and
a thin lens in photon 2's arm. Each pattern pixel enters as a point at its
centre, weighted by its area (a midpoint rule), its aperture transmission
and the polarization projection coefficient at its phase; the coherent sum
over pattern pixels, squared at each camera pixel's centre, is the
coincidence map. error_estimate covers the lens plane only: the midpoint
rule is off by 3.4e-3 of peak in the default ``image`` map (the Richardson
limit of subdivided pixels) and by 0.28 in a sigma = 40 mm clipped map
(README), the centre sampling by 5.9e-4.
Maps are peak-normalized with the raw peak kept in metadata so different
maps remain comparable on a common scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .biphoton import (
    QuadSettings,
    SourceParams,
    _warn_paraxial,
    axis_amplitude,
    axis_opening_mean,
)
from .errors import NumericError, ParameterError, SamplingError, check_count
from .grids import GridSpec, PixelGrid, pixel_geometry
from .optics import LensSystem, ghost_magnification, pattern_image_field
from .polarization import pattern_projection_coeff

# minimum pixels per fringe period before the interference map is trusted
MIN_PIXELS_PER_FRINGE = 8


@dataclass(frozen=True)
class DoubleSlit:
    """Two slits separated by d along one axis of the object plane.

    slit_width 0 means ideal delta slits (closed-form two-term sum); a
    positive width averages uniformly over each opening, also in closed
    form. ghost_interference_map refuses widths below the wavelength.
    """

    d: float
    axis: str = "x"
    slit_width: float = 0.0
    center: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.d) or self.d <= 0:
            raise ParameterError(f"slit separation must be > 0, got {self.d!r}")
        if self.axis not in ("x", "y"):
            raise ParameterError(f"slit axis must be 'x' or 'y', got {self.axis!r}")
        if not (0.0 <= self.slit_width < self.d):
            raise ParameterError("slit width must satisfy 0 <= width < separation")
        if not np.isfinite(self.center):
            raise ParameterError("slit center must be finite")


@dataclass(frozen=True)
class PhasePattern(PixelGrid):
    """Discretized polarization-sensitive phase pattern phi(x1, y1).

    grid: (ny, nx) phase values in radians.
    pitch: (px, py) meters per pixel.
    origin: (ox, oy) object-plane coordinates of the center of pixel (0, 0).
    aperture: transmission in [0, 1] of matching shape; None means fully open.
    """

    grid: np.ndarray
    pitch: Tuple[float, float]
    origin: Tuple[float, float]
    aperture: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 2 or grid.size == 0:
            raise ParameterError("pattern grid must be a non-empty 2D array")
        if not np.all(np.isfinite(grid)):
            raise ParameterError("pattern phases must be finite")
        self._set_pixels("pattern", self.pitch, self.origin)
        object.__setattr__(self, "grid", grid)
        if self.aperture is not None:
            ap = np.asarray(self.aperture, dtype=float)
            if ap.shape != grid.shape:
                raise ParameterError("aperture shape must match the pattern grid")
            if not np.all((ap >= 0) & (ap <= 1)):
                raise ParameterError("aperture transmission must lie in [0, 1]")
            object.__setattr__(self, "aperture", ap)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.grid.shape

    def transmission(self) -> np.ndarray:
        if self.aperture is None:
            return np.ones_like(self.grid)
        return self.aperture


def pattern_from_extent(
    grid: np.ndarray,
    extent: Tuple[float, float],
    center: Tuple[float, float] = (0.0, 0.0),
    aperture: Optional[np.ndarray] = None,
) -> PhasePattern:
    """Wrap a phase array as a pattern covering a centered physical extent."""
    grid = np.asarray(grid, dtype=float)
    pitch, origin = pixel_geometry(grid.shape, extent, center)
    return PhasePattern(grid=grid, pitch=pitch, origin=origin, aperture=aperture)


def half_plane_pattern(
    n: int = 128, extent: float = 4e-3, phi: float = np.pi, axis: str = "x"
) -> PhasePattern:
    """Binary two-region pattern: phase phi on the first n // 2 columns (rows
    for axis "y"), the negative half, and 0 on the rest; the split depends on
    n only, never on the extent."""
    check_count("pattern size n", n, 1)
    grid = np.zeros((n, n))
    if axis == "x":
        grid[:, : n // 2] = phi
    elif axis == "y":
        grid[: n // 2, :] = phi
    else:
        raise ParameterError(f"axis must be 'x' or 'y', got {axis!r}")
    return pattern_from_extent(grid, (extent, extent))


def uniform_pattern(n: int = 128, extent: float = 4e-3, phi: float = 0.0) -> PhasePattern:
    """Spatially uniform phase pattern (the background configuration)."""
    check_count("pattern size n", n, 1)
    return pattern_from_extent(np.full((n, n), float(phi)), (extent, extent))


# ---------------------------------------------------------------------------
# coincidence maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceMap(PixelGrid):
    """Gridded coincidence probabilities over the detection plane.

    values: (ny, nx) nonnegative array, peak-normalized to 1 unless
      identically zero.
    pitch, origin: grid geometry as in PhasePattern, detection-plane meters.
    meta: polarizer angles, raw peak before normalization, provenance notes.
    """

    values: np.ndarray
    pitch: Tuple[float, float]
    origin: Tuple[float, float]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ParameterError("map values must be a non-empty 2D array")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("map values must be finite")
        if np.any(vals < 0):
            raise ParameterError("coincidence probabilities cannot be negative")
        peak = float(np.max(vals))
        if peak > 0 and abs(peak - 1.0) > 1e-9:
            raise ParameterError("map must be peak-normalized (or identically zero)")
        self._set_pixels("map", self.pitch, self.origin)
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape

    def raw_values(self) -> np.ndarray:
        """Values on the common pre-normalization scale."""
        return self.values * self.meta.get("raw_peak", 1.0)


def _normalized_map(raw: np.ndarray, grid: PixelGrid, meta: dict):
    """CoincidenceMap of raw on grid's pixels, divided by its peak; meta
    gains raw_peak and normalization."""
    peak = float(np.max(np.abs(raw)))
    vals = raw / peak if peak > 0 else raw
    meta = dict(meta)
    meta["raw_peak"] = peak
    meta["normalization"] = "peak" if peak > 0 else "zero map"
    return CoincidenceMap(values=vals, pitch=grid.pitch, origin=grid.origin, meta=meta)


def expected_fringe_period(params: SourceParams, d: float) -> float:
    """Double-slit fringe period wavelength * (s1 + s2) / d."""
    return params.wavelength * (params.s1 + params.s2) / d


def ghost_interference_map(
    params: SourceParams, slit: DoubleSlit, plane_grid: GridSpec
) -> CoincidenceMap:
    """Coincidence map of the double-slit ghost interference experiment.

    The slit plane is the object plane; the map lives in the far plane with no
    lens. By the separability of the closed form the amplitude is
    axis_amplitude(0, across) times one factor along the slit axis, summed
    over the two slits: axis_amplitude(center, along) for a delta slit, and
    for a finite slit the mean of axis_amplitude over its opening, in closed
    form (axis_opening_mean). A finite slit narrower than the wavelength is
    outside the scalar model and raises ParameterError; a map that is zero
    at every pixel (slits or grid far off the axis, where the amplitude
    underflows) raises NumericError. meta records
    error_kind "closed-form" and error_estimate: 0 for delta slits, else the
    rounding bound of axis_opening_mean relative to the factor's peak.
    """
    if 0.0 < slit.slit_width < params.wavelength:
        raise ParameterError(
            f"slit width {slit.slit_width:g} m is below the wavelength "
            f"{params.wavelength:g} m, outside the scalar model"
        )
    period = expected_fringe_period(params, slit.d)
    pitch = plane_grid.pitch[0] if slit.axis == "x" else plane_grid.pitch[1]
    if period / pitch < MIN_PIXELS_PER_FRINGE:
        raise SamplingError(
            f"grid pitch {pitch:g} m gives {period / pitch:.1f} pixels per "
            f"fringe period {period:g} m; need >= {MIN_PIXELS_PER_FRINGE}"
        )

    x2, y2 = plane_grid.x_centers(), plane_grid.y_centers()
    along, across = (x2, y2) if slit.axis == "x" else (y2, x2)
    centers = np.array([slit.center + slit.d / 2, slit.center - slit.d / 2])
    _warn_paraxial(params, np.abs(centers) + slit.slit_width / 2, along, across)

    if slit.slit_width == 0.0:
        factor, error = axis_amplitude(params, centers[:, None], along).sum(axis=0), 0.0
    else:
        half = slit.slit_width / 2
        means, bounds = axis_opening_mean(
            params, centers[:, None] - half, centers[:, None] + half, along
        )
        factor = means.sum(axis=0)
        peak = float(np.max(np.abs(factor)))
        error = float(np.max(bounds.sum(axis=0))) / peak if peak else 0.0
    along_raw = np.abs(factor) ** 2
    across_raw = np.abs(axis_amplitude(params, 0.0, across)) ** 2
    x_raw, y_raw = (along_raw, across_raw) if slit.axis == "x" else (across_raw, along_raw)
    raw = np.outer(y_raw, x_raw) / 2
    if not np.all(np.isfinite(raw)):
        raise NumericError("interference map produced non-finite values")
    if not np.any(raw):
        raise NumericError(
            "interference map is zero at every pixel: the slits or the grid lie "
            "too far off the axis for the source's correlation"
        )
    meta = {
        "experiment": "ghost interference",
        "slit_separation_m": slit.d,
        "slit_axis": slit.axis,
        "fringe_period_expected_m": period,
        "error_estimate": error,
        "error_kind": "closed-form",
    }
    return _normalized_map(raw, plane_grid, meta)


def ghost_image_map(
    params: SourceParams,
    lens: LensSystem,
    pattern: PhasePattern,
    d1: float,
    d2: float,
    image_grid: GridSpec,
    quad: QuadSettings = QuadSettings(),
    telescope_scale: float = 1.0,
    workers: int = 1,
) -> CoincidenceMap:
    """Coincidence map of the polarization-sensitive ghost image.

    d1, d2 are the polarizer angles in radians. image_grid describes the
    camera plane; telescope_scale is the extra coordinate magnification of a
    relay between the lens image plane and the camera (1.0 means the camera
    sits directly in the lens image plane). The total object-to-camera scale
    is then (v/u) * telescope_scale.

    Pattern pixels are points at their centres weighted by their areas, and
    camera values are intensities at pixel centres (module docstring).

    optics.pattern_image_field evaluates the lens plane for the pattern's
    and the camera's pixel centres: it rejects a pattern reaching
    min(s1, s2) from the axis, picks the path and the node count, checks a
    quadrature count on a strided sub-camera, and returns the record that
    meta carries (lens_path, clip_bound, aperture_nodes, error_estimate,
    error_kind, and on the quadrature path aperture_bandwidth_rad and
    aperture_check_nodes). workers is accepted and changes nothing.
    """
    if not np.isfinite(telescope_scale) or telescope_scale <= 0:
        raise ParameterError("telescope scale must be finite and > 0")
    m = ghost_magnification(params, lens)
    total_scale = m * telescope_scale

    # the camera grid must resolve the magnified pattern pixels
    for cam_pitch, pat_pitch, name in zip(
        image_grid.pitch, pattern.pitch, ("x", "y")
    ):
        if cam_pitch / total_scale > pat_pitch * (1 + 1e-12):
            raise SamplingError(
                f"camera pitch {cam_pitch:g} m back-projects to "
                f"{cam_pitch / total_scale:g} m on the object, coarser than the "
                f"pattern pitch {pat_pitch:g} m along {name}"
            )

    weights = (
        pattern.transmission()
        * pattern_projection_coeff(pattern.grid, d1, d2)
        * (pattern.pitch[0] * pattern.pitch[1])
    )
    field, record = pattern_image_field(
        params, lens, weights, pattern.x_centers(), pattern.y_centers(),
        image_grid.x_centers() / telescope_scale, image_grid.y_centers() / telescope_scale, quad,
    )
    raw = np.abs(field) ** 2
    del field   # the largest array of the map, not held while it is normalized

    meta = {
        "experiment": "ghost image",
        "delta1_deg": float(np.rad2deg(d1)),
        "delta2_deg": float(np.rad2deg(d2)),
        "telescope_scale": float(telescope_scale),
        "total_scale": float(total_scale),
        **record,
    }
    return _normalized_map(raw, image_grid, meta)

