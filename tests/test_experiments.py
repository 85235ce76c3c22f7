import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ghostsim import optics
from ghostsim.biphoton import DOUBLING_TOL, finer_nodes
from ghostsim import (
    ApertureSamplingWarning,
    CoincidenceMap,
    ConvergenceError,
    DoubleSlit,
    GridSpec,
    NumericError,
    ParameterError,
    ParaxialWarning,
    PhasePattern,
    QuadSettings,
    SamplingError,
    SourceParams,
    SourceRegimeWarning,
    closed_form_amplitude,
    expected_fringe_period,
    ghost_image_map,
    ghost_interference_map,
    ghost_magnification,
    half_plane_pattern,
    pattern_from_extent,
    uniform_pattern,
)

# d=2 mm in the fringe geometry: lambda (s1+s2) / d, and the exact period of
# the model's chirp term pi s1 s2 / (c_chirp d); they differ by 0.03%
PERIOD_SMALL_ANGLE = 0.94365e-3
PERIOD_EXACT = np.pi * 1.33 * 1.0 / (2213321.255917696 * 2e-3)


# ---------------------------------------------------------------------------
# object-plane records
# ---------------------------------------------------------------------------


def test_double_slit_validation():
    DoubleSlit(d=2e-3)
    with pytest.raises(ParameterError):
        DoubleSlit(d=0.0)
    with pytest.raises(ParameterError):
        DoubleSlit(d=2e-3, axis="z")
    with pytest.raises(ParameterError):
        DoubleSlit(d=2e-3, slit_width=2e-3)
    for center in (np.nan, -np.inf):
        with pytest.raises(ParameterError, match="slit center must be finite"):
            DoubleSlit(d=2e-3, center=center)


def test_half_plane_pattern_structure():
    pat = half_plane_pattern(n=16, extent=4e-3)
    assert pat.shape == (16, 16)
    assert pat.pitch == (pytest.approx(0.25e-3), pytest.approx(0.25e-3))
    x = pat.x_centers()
    np.testing.assert_allclose(pat.grid[:, x < 0], np.pi)
    np.testing.assert_allclose(pat.grid[:, x > 0], 0.0)
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-17)


def test_half_plane_y_axis():
    pat = half_plane_pattern(n=8, extent=4e-3, axis="y")
    y = pat.y_centers()
    np.testing.assert_allclose(pat.grid[y < 0, :], np.pi)
    np.testing.assert_allclose(pat.grid[y > 0, :], 0.0)
    with pytest.raises(ParameterError):
        half_plane_pattern(axis="diag")


def test_half_plane_split_does_not_depend_on_the_extent():
    # phi on the first n // 2 columns (rows for y); an odd n's middle column
    # used to take phi or 0 from the rounding of its centre, so the extent
    # flipped it (n = 5: 0 over 3 mm, phi over 7.3 mm)
    for n in range(1, 400):
        half = np.where(np.arange(n) < n // 2, np.pi, 0.0)
        for extent in (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 7.3e-3, 1e-2, 0.1):
            grid = half_plane_pattern(n=n, extent=extent).grid
            assert (grid == half).all(), (n, extent)
            if n % 50 == 5:
                ygrid = half_plane_pattern(n=n, extent=extent, axis="y").grid
                np.testing.assert_array_equal(ygrid, grid.T)


@pytest.mark.parametrize("make", [
    lambda n: GridSpec(nx=n, ny=16, extent_x=1e-3, extent_y=1e-3),
    lambda n: GridSpec(nx=16, ny=n, extent_x=1e-3, extent_y=1e-3),
    lambda n: QuadSettings(nodes=n),
    lambda n: half_plane_pattern(n=n),
    lambda n: uniform_pattern(n=n),
], ids=["grid-nx", "grid-ny", "quad-nodes", "half-plane-n", "uniform-n"])
def test_counts_must_be_integers(make):
    # a float count once gave a grid of 16.5 columns with 17 centres, or a
    # raw TypeError further on; numpy integers are counts too. A bool is an
    # int to isinstance: a pattern of n=True died in numpy with a TypeError
    for bad in (100.0, 100.5, True, False, np.True_):
        with pytest.raises(ParameterError, match="integer"):
            make(bad)
    make(np.int64(100))


def test_pattern_validation():
    with pytest.raises(ParameterError):
        PhasePattern(grid=np.zeros((0, 4)), pitch=(1e-5, 1e-5), origin=(0, 0))
    with pytest.raises(ParameterError):
        PhasePattern(grid=np.full((4, 4), np.nan), pitch=(1e-5, 1e-5), origin=(0, 0))
    with pytest.raises(ParameterError):
        pattern_from_extent(np.zeros((4, 4)), (4e-3, 4e-3), aperture=np.full((4, 4), 2.0))
    with pytest.raises(ParameterError):
        pattern_from_extent(np.zeros((4, 4)), (4e-3, 4e-3), aperture=np.ones((3, 3)))


@pytest.mark.parametrize("pitch, origin, what", [
    ((np.inf, 1e-4), (np.nan, 0.0), "pitch"),
    ((np.nan, 1e-4), (0.0, 0.0), "pitch"),
    ((1e-4, 0.0), (0.0, 0.0), "pitch"),
    ((1e-4, 1e-4), (0.0, -np.inf), "origin"),
], ids=["infinite pitch", "NaN pitch", "zero pitch", "infinite origin"])
def test_pattern_geometry_must_be_finite(pitch, origin, what):
    # an infinite pitch or a NaN origin used to pass and fail in the contraction
    with pytest.raises(ParameterError, match=f"pattern {what} must be two finite"):
        PhasePattern(grid=np.zeros((2, 2)), pitch=pitch, origin=origin)


@pytest.mark.parametrize("make, what", [
    (lambda: CoincidenceMap(values=np.ones((2, 2)), pitch=(np.nan, 1e-4), origin=(0.0, 0.0)),
     "map pitch"),
    (lambda: CoincidenceMap(values=np.ones((2, 2)), pitch=(1e-4, 1e-4), origin=(np.inf, 0.0)),
     "map origin"),
    (lambda: GridSpec(4, 4, np.inf, 1.0), "grid pitch"),
    (lambda: GridSpec(4, 4, 1.0, 1.0, center=(0.0, np.nan)), "grid center"),
    (lambda: GridSpec(4, 4, 1.0, 1.0, center=(np.inf, 0.0)), "grid center"),
    (lambda: GridSpec(4, 4, 1.0, 1.0, center=(0.0,)), "grid center"),
], ids=["map NaN pitch", "map infinite origin", "grid infinite extent", "grid NaN center",
        "grid infinite center", "grid one-coordinate center"])
def test_map_and_grid_geometry_must_be_finite(make, what):
    # these used to pass, the grid with a NaN origin
    with pytest.raises(ParameterError, match=f"{what} must be two finite"):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: CoincidenceMap(values=np.ones(4), pitch=(1e-5, 1e-5), origin=(0.0, 0.0)),
     "map values must be a non-empty 2D array"),
    (lambda: CoincidenceMap(values=np.ones((2, 2, 2)), pitch=(1e-5, 1e-5), origin=(0.0, 0.0)),
     "map values must be a non-empty 2D array"),
    (lambda: CoincidenceMap(values=[[1.0, np.nan]], pitch=(1e-5, 1e-5), origin=(0.0, 0.0)),
     "map values must be finite"),
    (lambda: CoincidenceMap(values=[[1.0, np.inf]], pitch=(1e-5, 1e-5), origin=(0.0, 0.0)),
     "map values must be finite"),
    (lambda: GridSpec(4, 4, 0.0, 1.0), "grid extents must be positive"),
    (lambda: GridSpec(4, 4, 1.0, -1.0), "grid extents must be positive"),
    (lambda: GridSpec(4, 4, 1.0, np.nan), "grid extents must be positive"),
], ids=["1D values", "3D values", "NaN value", "infinite value", "zero extent",
        "negative extent", "NaN extent"])
def test_maps_and_grids_refuse_malformed_fields(make, match):
    with pytest.raises(ParameterError, match=match):
        make()


def test_default_transmission_is_open():
    pat = uniform_pattern(n=4)
    np.testing.assert_array_equal(pat.transmission(), np.ones((4, 4)))


# ---------------------------------------------------------------------------
# coincidence-map record
# ---------------------------------------------------------------------------


def test_map_must_be_peak_normalized():
    good = np.zeros((4, 4))
    good[1, 2] = 1.0
    CoincidenceMap(values=good, pitch=(1e-5, 1e-5), origin=(0, 0))
    with pytest.raises(ParameterError):
        CoincidenceMap(values=2 * good, pitch=(1e-5, 1e-5), origin=(0, 0))
    with pytest.raises(ParameterError):
        CoincidenceMap(values=good - 0.5, pitch=(1e-5, 1e-5), origin=(0, 0))


def test_raw_values_rescale():
    vals = np.array([[1.0, 0.5]])
    m = CoincidenceMap(
        values=vals, pitch=(1e-5, 1e-5), origin=(0, 0), meta={"raw_peak": 3.0}
    )
    np.testing.assert_allclose(m.raw_values(), [[3.0, 1.5]])


# ---------------------------------------------------------------------------
# ghost interference
# ---------------------------------------------------------------------------


def test_fringe_period_helper(fringe_params):
    assert expected_fringe_period(fringe_params, 2e-3) == pytest.approx(
        PERIOD_SMALL_ANGLE, rel=1e-4
    )


def _measured_period(cmap, row=0):
    c = cmap.values[row]
    x = cmap.x_centers()
    idx = np.nonzero((c[1:-1] > c[:-2]) & (c[1:-1] >= c[2:]))[0] + 1
    pos = []
    for i in idx:
        y0, y1, y2 = c[i - 1], c[i], c[i + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        pos.append(x[i] + shift * (x[1] - x[0]))
    return float(np.mean(np.diff(pos)))


def test_fringe_period_of_map(fringe_params):
    grid = GridSpec(nx=512, ny=3, extent_x=6e-3, extent_y=0.3e-3)
    cmap = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3), grid)
    period = _measured_period(cmap, row=1)
    assert period == pytest.approx(PERIOD_SMALL_ANGLE, rel=0.02)
    assert period == pytest.approx(PERIOD_EXACT, rel=0.02)


def test_fringes_follow_slit_axis(fringe_params):
    grid = GridSpec(nx=64, ny=64, extent_x=4e-3, extent_y=4e-3)
    along_x = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3, axis="x"), grid)
    along_y = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3, axis="y"), grid)
    # separable map: every row shows the same fringe profile up to a scale
    rows = along_x.values / np.max(along_x.values, axis=1, keepdims=True)
    np.testing.assert_allclose(rows, np.broadcast_to(rows[32], rows.shape), rtol=1e-9)
    # rotating the slit axis transposes the map on a square grid
    np.testing.assert_allclose(along_y.values, along_x.values.T, rtol=1e-12)


def test_interference_map_metadata_and_normalization(fringe_params):
    grid = GridSpec(nx=128, ny=4, extent_x=4e-3, extent_y=0.4e-3)
    cmap = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3), grid)
    assert cmap.values.max() == pytest.approx(1.0, abs=1e-12)
    assert cmap.meta["raw_peak"] > 0
    assert cmap.meta["slit_separation_m"] == 2e-3
    assert cmap.meta["fringe_period_expected_m"] == pytest.approx(PERIOD_SMALL_ANGLE, rel=1e-4)


def test_coarse_grid_rejected(fringe_params):
    # d=12 mm shrinks the period to 0.157 mm, only 3.4 px at this pitch
    grid = GridSpec(nx=128, ny=4, extent_x=6e-3, extent_y=0.4e-3)
    with pytest.raises(SamplingError):
        ghost_interference_map(fringe_params, DoubleSlit(d=12e-3), grid)


def test_finite_slit_width_runs_and_softens_contrast(fringe_params):
    grid = GridSpec(nx=256, ny=3, extent_x=4e-3, extent_y=0.3e-3)
    sharp = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3), grid)
    soft = ghost_interference_map(
        fringe_params, DoubleSlit(d=2e-3, slit_width=0.5e-3), grid
    )
    assert soft.values.max() == pytest.approx(1.0, abs=1e-12)
    assert not np.allclose(soft.values, sharp.values)


def _slit_reference(params, slit, grid, nodes=1024):
    """Normalized map of the 2D closed form summed over numpy's Gauss-Legendre
    rule across each slit of a DoubleSlit along x."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    x2 = grid.x_centers()[None, None, :]
    y2 = grid.y_centers()[None, :, None]
    amp = 0.0
    for center in (slit.center + slit.d / 2, slit.center - slit.d / 2):
        offs = (center + 0.5 * slit.slit_width * t)[:, None, None]
        amp = amp + np.tensordot(0.5 * w, closed_form_amplitude(params, offs, 0.0, x2, y2), 1)
    raw = np.abs(amp) ** 2
    return raw / raw.max()


@pytest.mark.parametrize("d, width, center", [
    pytest.param(2e-3, 0.5e-3, 0.0, id="0.002-0.0005"),
    pytest.param(20e-3, 5e-3, 0.0, id="0.02-0.005"),
    pytest.param(20e-3, 19e-3, 0.0, id="0.02-0.019"),
    pytest.param(2e-3, 810e-9, 0.0, id="0.002-one-wavelength"),
    pytest.param(2e-3, 0.5e-3, 5e-3, id="0.002-0.0005-off-axis"),
])
def test_finite_slits_match_a_high_node_reference(fringe_params, d, width, center):
    # a fixed 64-node rule was off by 0.9 of peak for the 19 mm slits
    grid = GridSpec(nx=256, ny=4, extent_x=1.5e-3, extent_y=2e-3)
    slit = DoubleSlit(d=d, slit_width=width, center=center)
    cmap = ghost_interference_map(fringe_params, slit, grid)
    tol = DOUBLING_TOL
    reference = _slit_reference(fringe_params, slit, grid)
    # the map is |factor|^2 over its peak: twice the factor's relative error,
    # and as much again from the peak it is normalized by
    np.testing.assert_allclose(cmap.values, reference, rtol=0, atol=4 * tol)
    assert cmap.meta["error_kind"] == "closed-form"
    assert cmap.meta["error_estimate"] <= tol
    if (d, width, center) == (2e-3, 0.5e-3, 0.0):
        # the rounding bound covers what the closed form is measured to miss;
        # wide slits are left out: there 1024-, 2048- and 4096-node
        # references differ from each other by ~2e-12, more than the bound
        assert np.max(np.abs(cmap.values - reference)) <= cmap.meta["error_estimate"]


def test_delta_slits_are_exact_single_nodes(fringe_params):
    grid = GridSpec(nx=64, ny=8, extent_x=4e-3, extent_y=1e-3)
    cmap = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3), grid)
    meta = cmap.meta
    assert (meta["error_estimate"], meta["error_kind"]) == (0.0, "closed-form")
    x2, y2 = grid.x_centers()[None, :], grid.y_centers()[:, None]
    amp = closed_form_amplitude(fringe_params, 1e-3, 0.0, x2, y2) + closed_form_amplitude(
        fringe_params, -1e-3, 0.0, x2, y2
    )
    want = np.abs(amp) ** 2
    np.testing.assert_allclose(cmap.values, want / want.max(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("width", [809e-9, 1e-12, 1e-300])
def test_slits_narrower_than_the_wavelength_are_refused(fringe_params, width):
    # the erf difference loses about 4e-19 m / width of peak to cancellation
    grid = GridSpec(nx=64, ny=2, extent_x=4e-3, extent_y=1e-3)
    with pytest.raises(ParameterError, match="below the wavelength"):
        ghost_interference_map(fringe_params, DoubleSlit(d=2e-3, slit_width=width), grid)


@pytest.mark.parametrize("width", [0.0, 0.5e-3])
def test_slits_far_off_the_axis_give_no_zero_map(fringe_params, width):
    # the amplitude underflows at every pixel; the map used to be written,
    # all zeros, as "zero map"
    grid = GridSpec(nx=512, ny=128, extent_x=6e-3, extent_y=2e-3)
    slit = DoubleSlit(d=2e-3, slit_width=width, center=0.3)
    with pytest.warns(ParaxialWarning), pytest.raises(NumericError, match="zero at every pixel"):
        ghost_interference_map(fringe_params, slit, grid)


SLITS_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from ghostsim import DoubleSlit, GridSpec, SourceParams, ghost_interference_map
params = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
grid = GridSpec(nx=64, ny=2, extent_x=4e-3, extent_y=1e-3)
ghost_interference_map(params, DoubleSlit(d=2e-3), grid)
assert "numpy.fft" not in sys.modules, "a delta slit imported numpy.fft"
cmap = ghost_interference_map(params, DoubleSlit(d=2e-3, slit_width=0.5e-3), grid)
assert cmap.meta["error_kind"] == "closed-form"
"""


def test_slits_need_no_scipy_and_delta_slits_no_fft():
    # scipy.special.wofz would be the obvious shortcut, but scipy is no dependency
    result = subprocess.run([sys.executable, "-c", SLITS_WITHOUT_SCIPY],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_maps_and_patterns_share_their_grids_pixel_centers(fringe_params):
    grid = GridSpec(nx=96, ny=5, extent_x=6e-3, extent_y=0.5e-3, center=(2e-4, -1e-4))
    cmap = ghost_interference_map(fringe_params, DoubleSlit(d=2e-3), grid)
    np.testing.assert_array_equal(cmap.x_centers(), grid.x_centers())
    np.testing.assert_array_equal(cmap.y_centers(), grid.y_centers())
    pat = pattern_from_extent(np.zeros((5, 96)), (6e-3, 0.5e-3), (2e-4, -1e-4))
    np.testing.assert_array_equal(pat.x_centers(), grid.x_centers())
    np.testing.assert_array_equal(pat.y_centers(), grid.y_centers())
    assert pat.pixel_header() == cmap.pixel_header()


# ---------------------------------------------------------------------------
# ghost imaging
# ---------------------------------------------------------------------------


def _image(params, lens, pattern, d1_deg, grid, ts=1.0, nodes=512):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApertureSamplingWarning)
        return ghost_image_map(
            params,
            lens,
            pattern,
            np.deg2rad(d1_deg),
            np.deg2rad(-45.0),
            grid,
            quad=QuadSettings(nodes=nodes),
            telescope_scale=ts,
        )


def test_image_map_metadata(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=24, ny=24, extent_x=m * 1e-3, extent_y=m * 1e-3)
    cmap = _image(imaging_params, imaging_lens, half_plane_pattern(n=32), -45.0, grid)
    assert cmap.meta["delta1_deg"] == pytest.approx(-45.0)
    assert cmap.meta["delta2_deg"] == pytest.approx(-45.0)
    assert cmap.meta["telescope_scale"] == 1.0
    assert cmap.meta["total_scale"] == pytest.approx(m)
    assert cmap.meta["aperture_nodes"] == 512
    assert cmap.meta["raw_peak"] > 0
    assert cmap.values.max() == pytest.approx(1.0, abs=1e-12)


def _auto_image(params, lens, pattern, d1_deg, grid, quad=QuadSettings()):
    return ghost_image_map(
        params, lens, pattern, np.deg2rad(d1_deg), np.deg2rad(-45.0), grid, quad=quad
    )


def test_image_map_records_lens_path(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=24, ny=24, extent_x=m * 1e-3, extent_y=m * 1e-3)
    pattern = half_plane_pattern(n=32)
    quad = _image(imaging_params, imaging_lens, pattern, -45.0, grid)
    closed = _auto_image(imaging_params, imaging_lens, pattern, -45.0, grid)
    assert quad.meta["lens_path"] == "quadrature"
    assert closed.meta["lens_path"] == "closed-form"
    assert closed.meta["aperture_nodes"] == 0
    assert quad.meta["clip_bound"] == closed.meta["clip_bound"]
    assert 0 < closed.meta["clip_bound"] < 1e-5


def test_image_map_states_its_error(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=24, ny=24, extent_x=m * 1e-3, extent_y=m * 1e-3)
    pattern = half_plane_pattern(n=32)
    closed = _auto_image(imaging_params, imaging_lens, pattern, -45.0, grid)
    assert closed.meta["error_kind"] == "clip_bound"
    assert closed.meta["error_estimate"] == closed.meta["clip_bound"]
    assert "aperture_bandwidth_rad" not in closed.meta
    assert "aperture_check_nodes" not in closed.meta
    # quad.check forces quadrature here; the count is the one the check
    # accepted, sized from the map's bandwidth, and the error its measured
    # change against the finer count it records
    quad = _auto_image(imaging_params, imaging_lens, pattern, -45.0, grid,
                       QuadSettings(check=True))
    assert quad.meta["error_kind"] == "refinement"
    assert 0 <= quad.meta["error_estimate"] <= 1e-8
    n = quad.meta["aperture_nodes"]
    assert n > 0 and n % 8 == 0
    assert quad.meta["aperture_check_nodes"] == finer_nodes(n)
    assert quad.meta["aperture_bandwidth_rad"] == pytest.approx(166.2, abs=0.1)
    coarser = _image(imaging_params, imaging_lens, pattern, -45.0, grid, nodes=n // 2)
    assert coarser.meta["error_estimate"] > 1e-8
    assert coarser.meta["aperture_nodes"] == n // 2


def test_clipped_map_converges_at_default_settings(imaging_lens):
    # a sigma = 40 mm source, whose lens-plane envelope the aperture clips,
    # imaged over a camera wider than the pattern's image
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.5)
    m = ghost_magnification(params, imaging_lens)
    grid = GridSpec(nx=256, ny=256, extent_x=m * 4.5e-3, extent_y=m * 4.5e-3)
    pattern = half_plane_pattern(n=128, extent=4e-3)
    auto = _auto_image(params, imaging_lens, pattern, -45.0, grid)
    assert auto.meta["lens_path"] == "quadrature"
    assert auto.meta["aperture_nodes"] <= 1024
    ref = _image(params, imaging_lens, pattern, -45.0, grid, nodes=768)
    assert np.max(np.abs(auto.values - ref.values)) <= 1e-10


def test_an_explicit_count_is_checked_a_quarter_finer(
    imaging_params, imaging_lens, monkeypatch
):
    # an explicit 1536 nodes is checked at 1920; the contraction is
    # stubbed, so no rule of either size is built
    counts = []

    def flat_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes):
        counts.append(nodes)
        return np.ones((y2c.size, x2c.size), dtype=complex)

    monkeypatch.setattr(optics, "_image_field", flat_field)
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=16, ny=16, extent_x=m * 4e-3, extent_y=m * 4e-3)
    cmap = _auto_image(imaging_params, imaging_lens, half_plane_pattern(n=8), -45.0, grid,
                       QuadSettings(nodes=1536))
    assert counts == [1536, 1920]
    assert cmap.meta["aperture_nodes"] == 1536
    assert cmap.meta["aperture_check_nodes"] == 1920


def test_a_quadrature_maps_doubling_check_runs_on_a_strided_sub_camera(
    imaging_lens, monkeypatch
):
    # the check at n and its finer count sees at most 16 camera columns and
    # rows, evenly strided with the first and last included; the first
    # count runs once, on the whole camera, and the finer one on the probe
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.5)
    m = ghost_magnification(params, imaging_lens)
    grid = GridSpec(nx=40, ny=8, extent_x=m * 4e-3, extent_y=m * 4e-3)
    calls = []

    def recorded(params, lens, weights, x1c, y1c, x2c, y2c, nodes):
        calls.append((x2c, y2c, nodes))
        return field(params, lens, weights, x1c, y1c, x2c, y2c, nodes)

    field = optics._image_field
    monkeypatch.setattr(optics, "_image_field", recorded)
    cmap = _auto_image(params, imaging_lens, half_plane_pattern(n=8), -45.0, grid)
    assert cmap.meta["lens_path"] == "quadrature"
    (x2c, y2c, nodes), *checked = calls
    assert len(checked) == 1
    assert nodes == cmap.meta["aperture_nodes"] > 0
    np.testing.assert_array_equal(x2c, grid.x_centers())
    np.testing.assert_array_equal(y2c, grid.y_centers())
    [(_, _, finer)] = checked
    assert finer == finer_nodes(nodes) == cmap.meta["aperture_check_nodes"]
    for x2p, y2p, _ in checked:
        assert x2p.size * y2p.size <= 256
        for probe, full in ((x2p, grid.x_centers()), (y2p, grid.y_centers())):
            index = np.flatnonzero(np.isin(full, probe))
            np.testing.assert_array_equal(full[index], probe)
            assert index.size == min(full.size, 16)
            assert index[0] == 0 and index[-1] == full.size - 1
            assert np.ptp(np.diff(index)) <= 1


def test_closed_form_map_matches_quadrature_map(imaging_params, imaging_lens):
    # default geometry: the 4 mm half-plane pattern, camera in the image plane
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=64, ny=64, extent_x=m * 4e-3, extent_y=m * 4e-3)
    pattern = half_plane_pattern(n=64, extent=4e-3)
    closed = _auto_image(imaging_params, imaging_lens, pattern, -45.0, grid)
    quad = _auto_image(imaging_params, imaging_lens, pattern, -45.0, grid,
                       QuadSettings(check=True))
    assert quad.meta["lens_path"] == "quadrature"
    gap = float(np.max(np.abs(closed.values - quad.values)))
    assert gap <= closed.meta["clip_bound"]


def test_default_closed_form_map_peak_memory(imaging_params, imaging_lens):
    # the image subcommand's default map: 128^2 half-plane pattern, 256^2
    # camera at a total scale of 0.87. The output phase is part of each axis
    # kernel, so no (256 x 256) complex phase map or product is allocated,
    # and the complex field is freed before the map is normalized: the peak
    # is 1.76 MiB, and 2.32 MiB while that field was held.
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=256, ny=256, extent_x=0.87 * 4e-3, extent_y=0.87 * 4e-3)
    pattern = half_plane_pattern(n=128, extent=4e-3, phi=np.pi)
    d = np.deg2rad(-45.0)

    def one_map():
        return ghost_image_map(
            imaging_params, imaging_lens, pattern, d, d, grid, telescope_scale=0.87 / m
        )

    assert one_map().meta["lens_path"] == "closed-form"
    tracemalloc.start()
    try:
        one_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2**20


def test_polarization_identities_hold_on_closed_form_path(imaging_params, imaging_lens):
    # acceptance criteria 4a and 4b, with automatic nodes (closed form)
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=64, ny=64, extent_x=m * 2e-3, extent_y=m * 2e-3)
    flat = uniform_pattern(n=64, extent=4e-3, phi=0.0)
    dark = _auto_image(imaging_params, imaging_lens, flat, -45.0, grid)
    ref = _auto_image(imaging_params, imaging_lens, flat, +45.0, grid)
    assert ref.meta["lens_path"] == "closed-form"
    assert np.max(dark.raw_values()) / np.max(ref.raw_values()) < 1e-10

    half = half_plane_pattern(n=64, extent=4e-3)
    shifted = pattern_from_extent(half.grid + np.pi, (4e-3, 4e-3))
    plus = _auto_image(imaging_params, imaging_lens, half, +45.0, grid)
    minus_shifted = _auto_image(imaging_params, imaging_lens, shifted, -45.0, grid)
    assert np.max(np.abs(plus.values - minus_shifted.values)) < 1e-12


def test_image_doubling_check_catches_coarse_nodes(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=40, ny=24, extent_x=m * 1e-3, extent_y=m * 0.6e-3)
    pattern = half_plane_pattern(n=32, extent=1e-3)
    with pytest.raises(ConvergenceError), warnings.catch_warnings():
        warnings.simplefilter("ignore", ApertureSamplingWarning)
        ghost_image_map(
            imaging_params, imaging_lens, pattern, np.deg2rad(-45.0), np.deg2rad(-45.0),
            grid, quad=QuadSettings(nodes=64, check=True),
        )


def test_an_absorbing_object_darkens_its_image(imaging_params, imaging_lens):
    # a flat pattern between crossed polarizers images bright; transmission 0
    # on its x < 0 half darkens the camera's x > 0 half, since the image is
    # inverted
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=64, ny=64, extent_x=m * 4e-3, extent_y=m * 4e-3)
    flat = uniform_pattern(n=32, extent=4e-3)

    def image(transmission):
        pattern = PhasePattern(flat.grid, flat.pitch, flat.origin, aperture=transmission)
        return ghost_image_map(imaging_params, imaging_lens, pattern,
                               np.deg2rad(45.0), np.deg2rad(-45.0), grid)

    half_open = np.ones((32, 32))
    half_open[:, :16] = 0.0
    cut = image(half_open)
    assert grid.x_centers()[31] < 0 < grid.x_centers()[32]
    assert cut.values[:, 32:].mean() < 0.01 and cut.values[:, :32].mean() > 0.5
    assert cut.values[:, 48:].max() <= 1e-70
    # a uniform transmission t scales the field by t: the raw peak by t^2
    opened, grey = image(None), image(np.full((32, 32), 0.5))
    assert grey.meta["raw_peak"] == 0.25 * opened.meta["raw_peak"]
    np.testing.assert_array_equal(grey.values, opened.values)


def test_camera_grid_must_resolve_magnified_pattern(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    coarse = GridSpec(nx=8, ny=8, extent_x=m * 4e-3, extent_y=m * 4e-3)
    with pytest.raises(SamplingError):
        _image(imaging_params, imaging_lens, half_plane_pattern(n=32), -45.0, coarse)


def test_uniform_zero_pattern_gives_zero_map(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=16, ny=16, extent_x=m * 1e-3, extent_y=m * 1e-3)
    cmap = _image(imaging_params, imaging_lens, uniform_pattern(n=32), -45.0, grid)
    assert cmap.meta["raw_peak"] == 0.0
    np.testing.assert_array_equal(cmap.values, 0.0)


def test_telescope_scale_rescales_camera_coordinates(imaging_params, imaging_lens):
    # halving the relay scale while halving the camera extent lands on the
    # same image-plane sample points, so the values agree exactly
    m = ghost_magnification(imaging_params, imaging_lens)
    pat = half_plane_pattern(n=32)
    direct = _image(
        imaging_params, imaging_lens, pat, -45.0,
        GridSpec(nx=20, ny=20, extent_x=m * 1e-3, extent_y=m * 1e-3), ts=1.0,
    )
    relayed = _image(
        imaging_params, imaging_lens, pat, -45.0,
        GridSpec(nx=20, ny=20, extent_x=0.5 * m * 1e-3, extent_y=0.5 * m * 1e-3), ts=0.5,
    )
    np.testing.assert_array_equal(relayed.values, direct.values)
    assert relayed.meta["total_scale"] == pytest.approx(0.5 * m)


def test_invalid_telescope_scale_rejected(imaging_params, imaging_lens):
    grid = GridSpec(nx=16, ny=16, extent_x=1e-3, extent_y=1e-3)
    with pytest.raises(ParameterError):
        ghost_image_map(
            imaging_params, imaging_lens, half_plane_pattern(n=32),
            0.0, 0.0, grid, telescope_scale=0.0,
        )


def test_image_workers_do_not_change_bytes(imaging_params, imaging_lens):
    m = ghost_magnification(imaging_params, imaging_lens)
    grid = GridSpec(nx=20, ny=20, extent_x=m * 1.5e-3, extent_y=m * 1.5e-3)
    pat = half_plane_pattern(n=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApertureSamplingWarning)
        maps = [
            ghost_image_map(
                imaging_params, imaging_lens, pat,
                np.deg2rad(-45.0), np.deg2rad(-45.0), grid,
                quad=QuadSettings(nodes=512), workers=w,
            )
            for w in (1, 3)
        ]
    assert maps[0].values.tobytes() == maps[1].values.tobytes()
