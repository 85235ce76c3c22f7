import functools
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ghostsim import (
    AIRY_FIRST_ZERO,
    MAX_NODES,
    ApertureSamplingWarning,
    ConvergenceError,
    GridSpec,
    LensSystem,
    ParameterError,
    QuadSettings,
    SourceParams,
    SourceRegimeWarning,
    aperture_nodes,
    axis_amplitude,
    ghost_image_map,
    ghost_magnification,
    half_plane_pattern,
    imaging_amplitude,
    pattern_from_extent,
    uniform_pattern,
)
from ghostsim import optics
from ghostsim.biphoton import DOUBLING_TOL, _axis_coefficients, finer_nodes
from ghostsim.optics import (
    APERTURE_CLIP_TOL,
    KERNEL_FLOOR,
    _disc_rule,
    _exponent_factors,
    _image_field,
    _lens_plane_coefficients,
    _on_axis_raw,
    _padded,
    check_refinement,
    lens_axis_kernel,
    lens_plane_nodes,
    pattern_image_field,
)

# Frozen values for f=1.5 m, u=2.83 m, rho=25 mm at 810 nm:
#   v from the thin-lens equation
V_IMAGE = 3.1917293233082713
MAGNIFICATION = 1.1278195488721807


# ---------------------------------------------------------------------------
# lens record
# ---------------------------------------------------------------------------


def test_image_distance_solved_from_lens_equation(imaging_lens):
    assert imaging_lens.v == pytest.approx(V_IMAGE, rel=1e-12)
    assert 1 / imaging_lens.u + 1 / imaging_lens.v == pytest.approx(
        1 / imaging_lens.f, rel=1e-12
    )


def test_magnification_property(imaging_lens):
    assert imaging_lens.magnification == pytest.approx(MAGNIFICATION, rel=1e-12)


def test_object_inside_focal_length_rejected():
    with pytest.raises(ParameterError):
        LensSystem(f=1.5, u=1.2)


def test_image_distance_is_derived_not_given():
    # v follows from f and u; a lens record does not take one
    with pytest.raises(TypeError):
        LensSystem(f=1.5, u=2.83, v=V_IMAGE)


def test_nonpositive_aperture_rejected():
    with pytest.raises(ParameterError):
        LensSystem(f=1.5, u=2.83, aperture_radius=0.0)


def test_ghost_magnification_requires_matching_geometry(imaging_params, imaging_lens):
    assert ghost_magnification(imaging_params, imaging_lens) == pytest.approx(
        MAGNIFICATION, rel=1e-12
    )
    fringe = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
    with pytest.raises(ParameterError):
        ghost_magnification(fringe, imaging_lens)


# ---------------------------------------------------------------------------
# kernels and node counts
# ---------------------------------------------------------------------------


def fresnel_kernel(dist: float, k: float, dx, dy) -> np.ndarray:
    """Unit-magnitude paraxial propagator exp(+i k (dx^2 + dy^2) / (2 dist)):
    an independent reference for the kernels' output phase."""
    dx = np.asarray(dx, float)
    dy = np.asarray(dy, float)
    return np.exp(1j * k * (dx * dx + dy * dy) / (2.0 * dist))


def test_phase_kernels_are_pure_phases(imaging_params):
    k = imaging_params.k
    xi = np.linspace(-0.02, 0.02, 11)
    np.testing.assert_allclose(np.abs(fresnel_kernel(3.0, k, xi, xi)), 1.0, rtol=1e-13)


def test_aperture_nodes_override_warns(imaging_params, imaging_lens):
    # the first count where the aperture clips, sized from the bandwidth
    # and the envelope: a PSF scan (omega = 6.1 rad, Re a = 0.09), the same
    # under a sigma = 3 mm envelope (Re a = 15.3), and a wide map; 0, the
    # closed form, where it does not; or the explicit one
    assert aperture_nodes(QuadSettings(), True, 6.1, 0.09) == 24
    assert aperture_nodes(QuadSettings(), True, 6.1, 15.3) == 56
    assert aperture_nodes(QuadSettings(), True, 289.6, 0.09) == 352
    assert aperture_nodes(QuadSettings(), True, 1e5, 0.09) == MAX_NODES
    assert aperture_nodes(QuadSettings(), False, 6.1, 0.09) == 0
    assert aperture_nodes(QuadSettings(nodes=512), False, 6.1, 0.09) == 512
    # an explicit count that misses its check against the finer count
    # warns, and is kept
    m = ghost_magnification(_wide_source(), imaging_lens)
    grid = GridSpec(nx=16, ny=16, extent_x=m * 4e-3, extent_y=m * 4e-3)
    with pytest.warns(ApertureSamplingWarning, match="refining 64 -> 80"):
        cmap = ghost_image_map(
            _wide_source(), imaging_lens, half_plane_pattern(n=8), 0.3, 0.2, grid,
            QuadSettings(nodes=64),
        )
    assert cmap.meta["aperture_nodes"] == 64 and cmap.meta["error_estimate"] > 1e-8


# ---------------------------------------------------------------------------
# imaging amplitude
# ---------------------------------------------------------------------------


def _quiet_amp(params, lens, x1, y1, x2, y2, nodes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApertureSamplingWarning)
        return imaging_amplitude(params, lens, x1, y1, x2, y2, QuadSettings(nodes=nodes))


def test_on_axis_reference_is_one(imaging_params, imaging_lens):
    val = _quiet_amp(imaging_params, imaging_lens, 0.0, 0.0, 0.0, 0.0, 64)
    assert complex(val) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_point_images_at_minus_m_x1(imaging_params, imaging_lens):
    x1 = 0.8e-3
    x2 = np.linspace(-1.05e-3, -0.75e-3, 61)
    amp = np.abs(_quiet_amp(imaging_params, imaging_lens, x1, 0.0, x2, 0.0, 128))
    found = x2[np.argmax(amp)]
    assert found == pytest.approx(-MAGNIFICATION * x1, abs=1.2 * (x2[1] - x2[0]))


def test_point_response_is_symmetric_in_the_two_axes(imaging_params, imaging_lens):
    a = _quiet_amp(imaging_params, imaging_lens, 0.5e-3, 0.2e-3, -0.6e-3, -0.2e-3, 128)
    b = _quiet_amp(imaging_params, imaging_lens, 0.2e-3, 0.5e-3, -0.2e-3, -0.6e-3, 128)
    assert complex(a) == pytest.approx(complex(b), rel=1e-12)


def test_psf_first_zero_tracks_aperture_airy_radius():
    # a wide source makes the position correlation much sharper than the
    # aperture resolution, so the point response approaches the lens Airy
    # profile; radius of the first dark ring = 3.8317 v / (k rho)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.5)
    lens = LensSystem(f=1.5, u=2.83)
    airy = AIRY_FIRST_ZERO * lens.v / (params.k * lens.aperture_radius)
    offsets = np.linspace(0.2, 1.6, 141) * airy
    amp = np.abs(imaging_amplitude(params, lens, 0.0, 0.0, offsets, 0.0))
    dips = np.nonzero((amp[1:-1] < amp[:-2]) & (amp[1:-1] < amp[2:]))[0] + 1
    assert len(dips) > 0
    assert offsets[dips[0]] == pytest.approx(airy, rel=0.05)


def test_imaging_convergence_check(imaging_params, imaging_lens):
    imaging_amplitude(
        imaging_params, imaging_lens, 0.5e-3, 0.0, -0.55e-3, 0.0,
        QuadSettings(check=True),
    )
    # 64 nodes cannot resolve the lens-plane phase of an image point 2 mm
    # from the conjugate of its object
    with pytest.raises(ConvergenceError, match="refining 64 -> 80"):
        imaging_amplitude(
            imaging_params, imaging_lens, 0.0, 0.0, 2e-3, 0.0,
            QuadSettings(nodes=64, check=True),
        )


def test_far_from_conjugate_point_converges_against_on_axis_value(
    imaging_params, imaging_lens, monkeypatch
):
    # |Phi_I| ~ 2e-9 here; measured against that alone, the doubling change
    # would stall near 1e-7 and the check raise, although the change is
    # ~1e-16 of the on-axis value 1
    chosen = []

    def recorded(coarse, fine, nodes, *args, **kwargs):
        chosen.append((nodes, check_refinement(coarse, fine, nodes, *args, **kwargs)))
        return chosen[-1][1]

    monkeypatch.setattr(optics, "check_refinement", recorded)
    value = imaging_amplitude(
        imaging_params, imaging_lens, 0.0, 0.0, 1e-3, 0.0, QuadSettings(check=True)
    )
    assert abs(value) < 1e-8
    [(nodes, change)] = chosen
    assert nodes <= 256 and change <= 1e-8


# ---------------------------------------------------------------------------
# pattern-weighted field
# ---------------------------------------------------------------------------


def test_pattern_field_matches_weighted_point_sum(imaging_params, imaging_lens):
    rng = np.random.default_rng(8)
    x1c = np.array([-0.4e-3, 0.1e-3, 0.5e-3])
    y1c = np.array([-0.3e-3, 0.2e-3])
    weights = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    x2 = np.linspace(-0.7e-3, 0.7e-3, 5)
    y2 = np.linspace(-0.5e-3, 0.5e-3, 4)
    field = _image_field(imaging_params, imaging_lens, weights, x1c, y1c, x2, y2, 512)
    direct = np.zeros((4, 5), dtype=complex)
    for j, yy in enumerate(y1c):
        for i, xx in enumerate(x1c):
            direct += weights[j, i] * _quiet_amp(
                imaging_params, imaging_lens, xx, yy, x2[None, :], y2[:, None], 512
            )
    np.testing.assert_allclose(field, direct, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form lens-plane path
# ---------------------------------------------------------------------------


def _wide_source():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        return SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.5)


DEFAULT_PATTERN_CENTERS = -2e-3 + (np.arange(128) + 0.5) * (4e-3 / 128)


def test_lens_axis_kernel_is_one_on_axis(imaging_params, imaging_lens):
    assert complex(lens_axis_kernel(imaging_params, imaging_lens, 0.0, 0.0)) == 1.0


def test_lens_plane_coefficients_are_the_sources_plus_the_lens_terms(
    imaging_params, imaging_lens
):
    # B and C at image coordinate 0 are the source factor's Q and R in xi at
    # s2 with a1 fixed at s1; the lens adds phase only, so Re A = Re P
    p = imaging_params
    a1 = np.linspace(-3e-3, 3e-3, 13)
    A, B, C = _lens_plane_coefficients(p, imaging_lens, a1, 0.0)
    P, Q, R = _axis_coefficients(p, p.s2, p.s1, a1)
    np.testing.assert_array_equal(B, Q)
    np.testing.assert_array_equal(C, R)
    assert A.real == P.real


def test_closed_form_amplitude_is_the_product_of_axis_kernels(imaging_params, imaging_lens):
    # the kernels carry the whole Fresnel step, output phase included
    rng = np.random.default_rng(25)
    m = ghost_magnification(imaging_params, imaging_lens)
    x1, y1 = rng.uniform(-2e-3, 2e-3, (2, 40))
    x2, y2 = -m * np.array([x1, y1]) + rng.uniform(-0.2e-3, 0.2e-3, (2, 40))
    assert lens_plane_nodes(imaging_params, imaging_lens, QuadSettings(), x1, y1, x2, y2)[0] == 0
    amp = imaging_amplitude(imaging_params, imaging_lens, x1, y1, x2, y2)
    kernels = (lens_axis_kernel(imaging_params, imaging_lens, x1, x2)
               * lens_axis_kernel(imaging_params, imaging_lens, y1, y2))
    assert np.array_equal(amp, kernels)


def _clip_bound(params, lens, x1, y1):
    return lens_plane_nodes(params, lens, QuadSettings(), x1, y1, 0.0, 0.0)[1]


def test_clip_bound_values(imaging_params, imaging_lens):
    bound = _clip_bound(
        imaging_params, imaging_lens, DEFAULT_PATTERN_CENTERS, DEFAULT_PATTERN_CENTERS
    )
    assert bound == pytest.approx(8.6e-6, rel=0.02)
    assert _clip_bound(_wide_source(), imaging_lens, 0.0, 0.0) > 0.5
    # an object centre imaged onto the lens plane beyond the rim bounds nothing
    assert _clip_bound(imaging_params, imaging_lens, 30e-3, 0.0) > 1.0


@pytest.mark.parametrize("a", [0.0, 1e-3, 2e-3, 4e-3])
def test_clip_bound_covers_closed_form_vs_quadrature(imaging_params, imaging_lens, a):
    m = ghost_magnification(imaging_params, imaging_lens)
    x2 = -m * a + np.linspace(-0.3e-3, 0.3e-3, 7)
    closed = imaging_amplitude(imaging_params, imaging_lens, a, a, x2[None, :], x2[:, None])
    quad = imaging_amplitude(
        imaging_params, imaging_lens, a, a, x2[None, :], x2[:, None], QuadSettings(check=True)
    )
    gap = float(np.max(np.abs(closed - quad)))
    assert gap <= _clip_bound(imaging_params, imaging_lens, a, a)
    assert gap < 1e-5
    assert np.max(np.abs(closed)) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("u", [2.83, 3.0], ids=["in-focus", "defocused"])
def test_map_axis_ends_size_the_count_of_every_pixel_pair(imaging_lens, u):
    # ghost_image_map passes only the axis ends: B is affine in a1 and a2,
    # so the largest |B| over every pattern x camera pixel pair is at a corner
    params, lens = _wide_source(), LensSystem(f=1.5, u=u)
    m = imaging_lens.magnification
    pattern = pattern_from_extent(np.zeros((96, 128)), (4e-3, 3e-3), center=(0.5e-3, -0.2e-3))
    grid = GridSpec(nx=256, ny=200, extent_x=m * 4.5e-3, extent_y=m * 3.5e-3,
                    center=(-m * 0.5e-3, 0.1e-3))
    x1c, y1c = pattern.x_centers(), pattern.y_centers()
    x2c, y2c = grid.x_centers(), grid.y_centers()
    ends = lens_plane_nodes(params, lens, QuadSettings(), x1c[[0, -1], None],
                            y1c[[0, -1], None], x2c[[0, -1]], y2c[[0, -1]])
    every = lens_plane_nodes(params, lens, QuadSettings(), x1c[:, None], y1c[:, None], x2c, y2c)
    assert ends[0] == every[0] > 0
    assert np.float64(ends[2]).tobytes() == np.float64(every[2]).tobytes()


def test_closed_form_point_path_selected_at_default_geometry(imaging_params, imaging_lens):
    nodes, bound, omega = lens_plane_nodes(
        imaging_params, imaging_lens, QuadSettings(),
        DEFAULT_PATTERN_CENTERS, DEFAULT_PATTERN_CENTERS, 0.0, 0.0,
    )
    assert nodes == 0 and bound <= APERTURE_CLIP_TOL and omega == 0.0
    # quad.check holds the bound to DOUBLING_TOL: on axis a 40 mm aperture
    # meets it and keeps the closed form (the default 25 mm one does not)
    wide = LensSystem(f=1.5, u=2.83, aperture_radius=40e-3)
    nodes, bound, _ = lens_plane_nodes(
        imaging_params, wide, QuadSettings(check=True), 0.0, 0.0, 0.0, 0.0
    )
    assert nodes == 0 and bound == pytest.approx(1.8e-17, rel=0.05) and bound < DOUBLING_TOL


def test_quadrature_selected_where_closed_form_is_not_enough(imaging_params, imaging_lens):
    # on axis omega is 2 |Im A| rho^2 alone, 0.62 rad at sigma = 3 mm: the
    # first count is 8 nodes for sigma = 40 mm, 48 for sigma = 3 mm
    # (Re a = 15.3)
    on_axis = (0.0, 0.0, 0.0, 0.0)
    # the aperture clips the lens-plane envelope of a sigma = 40 mm source
    assert lens_plane_nodes(_wide_source(), imaging_lens, QuadSettings(), *on_axis)[0] == 8
    # an explicit node count always means quadrature
    assert lens_plane_nodes(
        imaging_params, imaging_lens, QuadSettings(nodes=512), *on_axis
    )[0] == 512
    # under quad.check a bound above DOUBLING_TOL: the default pattern at its
    # conjugate image points (omega = 3.4 rad), and the axis alone, which
    # APERTURE_CLIP_TOL would pass
    image = -ghost_magnification(imaging_params, imaging_lens) * DEFAULT_PATTERN_CENTERS
    assert lens_plane_nodes(
        imaging_params, imaging_lens, QuadSettings(check=True),
        DEFAULT_PATTERN_CENTERS, DEFAULT_PATTERN_CENTERS, image, image,
    )[0] == 56
    nodes, bound, omega = lens_plane_nodes(
        imaging_params, imaging_lens, QuadSettings(check=True), *on_axis
    )
    assert nodes == 48 and bound == pytest.approx(4.4e-7, rel=0.02)
    assert omega == pytest.approx(0.62, abs=0.01)
    assert DOUBLING_TOL < bound < APERTURE_CLIP_TOL


@pytest.mark.parametrize("quad", [QuadSettings(nodes=64), QuadSettings(check=True)])
def test_imaging_amplitude_of_no_points_is_empty(imaging_params, imaging_lens, quad):
    # both runs take the quadrature path, whose doubling check once took
    # numpy's max of nothing
    empty = np.zeros(0)
    value = imaging_amplitude(imaging_params, imaging_lens, empty, empty, empty, empty, quad)
    assert value.shape == (0,)


def test_object_points_beyond_the_paraxial_model_are_rejected(imaging_params, imaging_lens):
    # the limit is min(s1, s2) = 1.33 m, 20 times the paraxial budget
    assert lens_plane_nodes(
        imaging_params, imaging_lens, QuadSettings(), 1.0, 0.0, 0.0, 0.0
    )[0] > 0
    with pytest.raises(ParameterError, match=r"reach 1.4 m .* min\(s1, s2\) = 1.33 m"):
        lens_plane_nodes(imaging_params, imaging_lens, QuadSettings(), 1.4, 0.0, 0.0, 0.0)
    # points get the check before any kernel is built, as maps do
    with pytest.raises(ParameterError, match="reach"):
        imaging_amplitude(imaging_params, imaging_lens, 0.0, 1.4, 0.0, 0.0)


def test_image_points_beyond_the_aperture_quadrature_are_refused_before_any_rule(
    imaging_lens, monkeypatch
):
    # an infinite lens-plane bandwidth ended in OverflowError at math.ceil
    def no_rule(n):
        raise AssertionError("a disc rule was built")

    monkeypatch.setattr(optics, "_disc_rule", no_rule)
    params = _wide_source()
    x1c, far = np.array([-1e-3, 1e-3]), np.full(2, 1e308)
    # the squares of such image points overflow in the lens-plane terms
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParameterError, match="bandwidth is inf"):
            imaging_amplitude(params, imaging_lens, 0.0, 0.0, 1e308, 0.0)
        with pytest.raises(ParameterError, match="bandwidth is inf"):
            pattern_image_field(params, imaging_lens, np.ones((2, 2)), x1c, x1c, far, x1c)


@pytest.mark.parametrize("radius", [2e154, 1e200, 1e308])
def test_an_aperture_too_wide_to_square_clips_nothing(imaging_params, imaging_lens, radius):
    # (rho - r)**2 and rho**2 raised OverflowError above rho ~ 1.3e154
    lens = LensSystem(f=1.5, u=2.83, aperture_radius=radius)
    assert lens_plane_nodes(imaging_params, lens, QuadSettings(), 1e-3, 0.0, 0.0, 0.0) == (
        0, 0.0, 0.0)
    # the closed form leaves the aperture out, so the points are the default lens's
    pts = (1e-3, 0.0, np.linspace(-1e-3, 1e-3, 5), 0.0)
    np.testing.assert_array_equal(imaging_amplitude(imaging_params, lens, *pts),
                                  imaging_amplitude(imaging_params, imaging_lens, *pts))
    # a given count asks for a quadrature over the whole of it
    with pytest.raises(ParameterError, match="bandwidth is inf"):
        lens_plane_nodes(imaging_params, lens, QuadSettings(nodes=64), 1e-3, 0.0, 0.0, 0.0)


def test_pattern_image_field_records_its_path_and_check(imaging_params, imaging_lens):
    x1c = np.linspace(-0.5e-3, 0.5e-3, 4)
    x2c = np.linspace(-0.6e-3, 0.6e-3, 20)
    args = (imaging_lens, np.ones((4, 4)), x1c, x1c, x2c, x2c)
    field, record = pattern_image_field(imaging_params, *args)
    bound = record["clip_bound"]
    assert record == {"lens_path": "closed-form", "clip_bound": bound, "aperture_nodes": 0,
                      "error_estimate": bound, "error_kind": "clip_bound"}
    np.testing.assert_array_equal(field, _image_field(imaging_params, *args, 0))
    # the clipped source: the count the axis ends size, checked a quarter finer
    params = _wide_source()
    field, record = pattern_image_field(params, *args)
    n, bound, omega = lens_plane_nodes(params, imaging_lens, QuadSettings(), x1c[[0, -1], None],
                                       x1c[[0, -1], None], x2c[[0, -1]], x2c[[0, -1]])
    assert n > 0 and record == {
        "lens_path": "quadrature", "clip_bound": bound, "aperture_nodes": n,
        "aperture_bandwidth_rad": omega, "aperture_check_nodes": finer_nodes(n),
        "error_estimate": record["error_estimate"], "error_kind": "refinement",
    }
    assert record["error_estimate"] <= DOUBLING_TOL
    np.testing.assert_array_equal(field, _image_field(params, *args, n))


def test_closed_form_pattern_field_matches_weighted_point_sum(imaging_params, imaging_lens):
    rng = np.random.default_rng(10)
    x1c = np.array([-0.4e-3, 0.1e-3, 0.5e-3])
    y1c = np.array([-0.3e-3, 0.2e-3])
    weights = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    x2 = np.linspace(-0.7e-3, 0.7e-3, 5)
    y2 = np.linspace(-0.5e-3, 0.5e-3, 4)
    field = _image_field(imaging_params, imaging_lens, weights, x1c, y1c, x2, y2, 0)
    direct = np.zeros((4, 5), dtype=complex)
    for j, yy in enumerate(y1c):
        for i, xx in enumerate(x1c):
            direct += weights[j, i] * imaging_amplitude(
                imaging_params, imaging_lens, xx, yy, x2[None, :], y2[:, None]
            )
    np.testing.assert_allclose(field, direct, rtol=1e-12, atol=1e-14)


def _full_phase_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes):
    """_image_field with the output phase as one full-map
    fresnel_kernel phase, and closed-form kernels with their tails: the
    kernels' own per-axis phase is divided out first."""
    out_phase = fresnel_kernel(lens.v, params.k, x2c[None, :], y2c[:, None])
    if nodes == 0:
        Kx = lens_axis_kernel(params, lens, x1c[:, None], x2c[None, :])
        Ky = lens_axis_kernel(params, lens, y1c[:, None], y2c[None, :])
        Kx /= fresnel_kernel(lens.v, params.k, x2c, 0.0)
        Ky /= fresnel_kernel(lens.v, params.k, y2c, 0.0)
        return (Ky.T @ weights @ Kx) * out_phase
    s, W = _disc_rule(nodes)
    xi = lens.aperture_radius * s
    Fx = _exponent_factors(*_lens_plane_coefficients(params, lens, x1c, np.zeros_like(x1c)), xi)
    Fy = _exponent_factors(*_lens_plane_coefficients(params, lens, y1c, np.zeros_like(y1c)), xi)
    Ex = np.exp(-1j * params.k * np.outer(xi, x2c) / lens.v)
    Ey = np.exp(-1j * params.k * np.outer(xi, y2c) / lens.v)
    H = (Fx @ (weights.T @ Fy.T)) * W
    acc = Ex.T @ (H @ Ey)
    return (acc * out_phase.T / _on_axis_raw(params, lens)).T


def _map_fields(monkeypatch, *args, reference=_full_phase_field, **kwargs):
    """(field, reference) of the last contraction over the whole camera that
    a ghost_image_map call runs; the reference is reference,
    _full_phase_field by default, on the same arguments."""
    seen = []

    def both(*field_args):
        field = _image_field(*field_args)
        seen.append((field, reference(*field_args)))
        return field

    monkeypatch.setattr(optics, "_image_field", both)
    ghost_image_map(*args, **kwargs)
    whole = max(field.size for field, _ in seen)
    return [pair for pair in seen if pair[0].size == whole][-1]


def _default_cli_map_args(params, lens, pattern):
    """ghost_image_map arguments of the image subcommand's defaults: 256^2
    camera, relay telescope to a total scale of 0.87, both polarizers at -45."""
    scale = 0.87 / ghost_magnification(params, lens)
    grid = GridSpec(nx=256, ny=256, extent_x=0.87 * 4e-3, extent_y=0.87 * 4e-3)
    d = np.deg2rad(-45.0)
    return (params, lens, pattern, d, d, grid), dict(telescope_scale=scale)


@pytest.mark.parametrize("which", ["half-plane", "random phase"])
def test_closed_form_map_field_matches_full_map_phase(
    imaging_params, imaging_lens, monkeypatch, which
):
    if which == "half-plane":
        pattern = half_plane_pattern(n=128, extent=4e-3, phi=np.pi)
    else:
        phases = np.random.default_rng(81).uniform(0.0, 2 * np.pi, (128, 128))
        pattern = pattern_from_extent(phases, (4e-3, 4e-3))
    args, kwargs = _default_cli_map_args(imaging_params, imaging_lens, pattern)
    field, ref = _map_fields(monkeypatch, *args, **kwargs)
    assert field.shape == (256, 256)
    assert np.max(np.abs(field - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_quadrature_map_field_matches_full_map_phase(imaging_lens, monkeypatch):
    params = _wide_source()
    m = ghost_magnification(params, imaging_lens)
    grid = GridSpec(nx=128, ny=128, extent_x=m * 4.5e-3, extent_y=m * 4.5e-3)
    pattern = half_plane_pattern(n=64, extent=4e-3)
    field, ref = _map_fields(monkeypatch, params, imaging_lens, pattern, 0.3, -0.5, grid)
    assert field.shape == (128, 128)
    assert np.max(np.abs(field - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_closed_form_map_kernels_have_no_entry_below_the_floor(
    imaging_params, imaging_lens, monkeypatch
):
    magnitudes = []
    map_kernel = optics._map_kernel

    def recorded(*args):
        K = map_kernel(*args)
        magnitudes.append(np.abs(K))
        return K

    monkeypatch.setattr(optics, "_map_kernel", recorded)
    args, kwargs = _default_cli_map_args(
        imaging_params, imaging_lens, half_plane_pattern(n=128, extent=4e-3, phi=np.pi)
    )
    ghost_image_map(*args, **kwargs)
    assert [a.shape for a in magnitudes] == [(128, 256), (128, 256)]
    for a in magnitudes:
        assert not np.any((a > 0) & (a < KERNEL_FLOOR))
        # the default geometry's kernels do have tails below the floor
        assert 0 < np.count_nonzero(a == 0) < a.size


def _uncached_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes):
    """The closed-form contraction with its kernels built for every call:
    lens_axis_kernel, then the floor."""
    assert nodes == 0

    def kernel(a1, a2):
        K = lens_axis_kernel(params, lens, a1[:, None], a2[None, :])
        K[np.abs(K) < KERNEL_FLOOR] = 0.0
        return K

    Kx = kernel(x1c, x2c)
    Ky = kernel(y1c, y2c)
    return Ky.T @ weights @ Kx


def _random_pattern(seed, n=128):
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (n, n))
    return pattern_from_extent(phases, (4e-3, 4e-3))


def _cached_vs_uncached(monkeypatch, *args, **kwargs):
    field, ref = _map_fields(monkeypatch, *args, reference=_uncached_field, **kwargs)
    assert np.array_equal(field, ref)
    return field


@pytest.mark.parametrize("which", ["half-plane", "random phase"])
def test_cached_map_kernels_give_the_uncached_map_bitwise(
    imaging_params, imaging_lens, monkeypatch, which
):
    if which == "half-plane":
        args, kwargs = _default_cli_map_args(
            imaging_params, imaging_lens, half_plane_pattern(n=128, extent=4e-3, phi=np.pi)
        )
    else:
        args, kwargs = _default_cli_map_args(imaging_params, imaging_lens, _random_pattern(82))
        args = args[:3] + (0.3, -1.1) + args[5:]
    optics._phased_map_kernel.cache_clear()
    cold = _cached_vs_uncached(monkeypatch, *args, **kwargs)
    warm = _cached_vs_uncached(monkeypatch, *args, **kwargs)
    assert np.array_equal(cold, warm)
    # a square, centred geometry: one kernel serves both axes of both maps
    info = optics._phased_map_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_cached_kernels_of_an_off_centre_camera_give_the_uncached_map(
    imaging_params, imaging_lens, monkeypatch
):
    grid = GridSpec(nx=200, ny=150, extent_x=3e-3, extent_y=2.5e-3, center=(1e-4, -2e-4))
    args = (imaging_params, imaging_lens, _random_pattern(83), 0.7, 0.2, grid)
    optics._phased_map_kernel.cache_clear()
    for _ in ("cold", "warm"):
        _cached_vs_uncached(monkeypatch, *args, telescope_scale=0.9)
    info = optics._phased_map_kernel.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_a_pattern_sweep_builds_its_kernel_once(imaging_params, imaging_lens, monkeypatch):
    args, kwargs = _default_cli_map_args(imaging_params, imaging_lens, None)
    optics._phased_map_kernel.cache_clear()
    for seed in range(5):
        d1, d2 = np.random.default_rng(seed).uniform(-np.pi, np.pi, 2)
        sweep_args = args[:2] + (_random_pattern(90 + seed), d1, d2) + args[5:]
        _cached_vs_uncached(monkeypatch, *sweep_args, **kwargs)
    info = optics._phased_map_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 9)


@pytest.mark.parametrize("change", ["s2", "telescope_scale", "camera centre"])
def test_a_changed_geometry_misses_the_kernel_cache(
    imaging_params, imaging_lens, monkeypatch, change
):
    pattern = _random_pattern(84, n=64)
    args, kwargs = _default_cli_map_args(imaging_params, imaging_lens, pattern)
    optics._phased_map_kernel.cache_clear()
    _cached_vs_uncached(monkeypatch, *args, **kwargs)
    params, lens, grid = imaging_params, imaging_lens, args[5]
    if change == "s2":
        params = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.6)
        lens = LensSystem(f=1.5, u=1.33 + 1.6)
    elif change == "telescope_scale":
        kwargs = dict(telescope_scale=1.1 * kwargs["telescope_scale"])
    else:
        grid = GridSpec(nx=256, ny=256, extent_x=grid.extent_x, extent_y=grid.extent_y,
                        center=(1e-4, 0.0))
    _cached_vs_uncached(monkeypatch, params, lens, pattern, *args[3:5], grid, **kwargs)
    # one more miss each; a centre moved along x leaves y on the kernel built before
    assert optics._phased_map_kernel.cache_info().misses == 2


def test_cached_map_kernels_are_read_only(imaging_params, imaging_lens):
    K = optics._map_kernel(
        imaging_params, imaging_lens, DEFAULT_PATTERN_CENTERS, np.linspace(-2e-3, 2e-3, 64)
    )
    assert K.shape == (128, 64)
    with pytest.raises(ValueError):
        K[0, 0] = 1.0
    with pytest.raises(ValueError):
        K *= 2.0


# ---------------------------------------------------------------------------
# disc rule of the clipped-aperture quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 33, 64, 512])
def test_disc_rule_weights_sum_to_the_disc_area(imaging_lens, n):
    rho = imaging_lens.aperture_radius
    nodes, W = _disc_rule(n)
    assert abs(rho**2 * W.sum() - np.pi * rho**2) <= 1e-13 * np.pi * rho**2
    # the Chebyshev points, in both directions; a chord through the centre
    # (odd n), at the node 0, has pi / n times Fejer's first-rule weights
    phi = np.pi * (np.arange(n) + 0.5) / n
    np.testing.assert_allclose(nodes, -np.cos(phi), rtol=0, atol=3e-16)
    if n % 2:
        assert nodes[n // 2] == 0.0
        k = np.arange(1, n // 2 + 1)
        fejer = 2 / n * (1 - 2 * np.cos(2 * np.outer(phi, k)) @ (1 / (4 * k * k - 1)))
        np.testing.assert_allclose(W[n // 2], np.pi / n * fejer, rtol=1e-13)
    assert not nodes.flags.writeable and not W.flags.writeable and _disc_rule(n)[1] is W


@pytest.mark.parametrize("n", [15, 16])
def test_disc_rule_integrates_even_monomials_exactly(n):
    # the n Chebyshev points interpolate y^2q exactly for 2q < n, and the
    # midpoint steps in theta integrate the resulting trigonometric
    # polynomial, of degree 2p + 2q + 2, exactly below 2n. Over the unit
    # disc the integral of x^2p y^2q is G(p + 1/2) G(q + 1/2) / G(p + q + 2)
    nodes, W = _disc_rule(n)
    x2 = y2 = nodes**2
    for q in range((n - 1) // 2 + 1):
        for p in range(n - 1 - q):
            exact = math.gamma(p + 0.5) * math.gamma(q + 0.5) / math.gamma(p + q + 2)
            assert abs(x2**p @ W @ y2**q / exact - 1.0) <= 1e-12, (p, q)


def _imaging_raw(params, lens, x1, y1, x2, y2, nodes):
    """Unnormalized Phi_I at flat point arrays, by optics._disc_sum as it is
    when called (a test may wrap it)."""
    A, Bx, Cx = _lens_plane_coefficients(params, lens, x1, x2)
    _, By, Cy = _lens_plane_coefficients(params, lens, y1, y2)
    return optics._disc_sum(A, *_padded(Bx, Cx, By, Cy), lens.aperture_radius, nodes)[:x1.size]


def _point_amplitude(params, lens, x1, y1, x2, y2, nodes):
    """Normalized Phi_I at flat point arrays, by the disc rule with nodes."""
    return _imaging_raw(params, lens, x1, y1, x2, y2, nodes) / _on_axis_raw(params, lens)


def _per_chord_amplitude(params, lens, x1, y1, x2, y2, n=128):
    """Reference: Gauss-Legendre on each chord, eta_ab = rho cos(theta_a) t_b,
    and in theta, from numpy's independent rule."""
    t, w = leggauss(n)
    theta = 0.5 * np.pi * t
    xi = lens.aperture_radius * np.sin(theta)
    half = lens.aperture_radius * np.cos(theta)
    eta = half[:, None] * t                                      # (a, b)
    wab = (0.5 * np.pi * w * half)[:, None] * half[:, None] * w  # dxi deta

    def raw(a1, b1, a2, b2):
        A, Bx, Cx = _lens_plane_coefficients(params, lens, a1, a2)
        _, By, Cy = _lens_plane_coefficients(params, lens, b1, b2)
        fx = np.exp(-A * xi**2 + np.outer(Bx, xi) + Cx[:, None])
        fy = np.exp(-A * eta**2 + By[:, None, None] * eta + Cy[:, None, None])
        return np.einsum("pa,ab,pab->p", fx, wab, fy)

    zero = np.zeros(1)
    return raw(x1, y1, x2, y2) / raw(zero, zero, zero, zero)[0]


@pytest.mark.parametrize("sigma, obj", [(40e-3, (0.7e-3, -0.4e-3)), (3e-3, (4e-3, 4e-3))])
def test_disc_rule_matches_a_per_chord_rule(imaging_lens, sigma, obj):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=sigma, s1=1.33, s2=1.5)
    pts = _psf_line(params, imaging_lens, *obj)
    amp = imaging_amplitude(params, imaging_lens, *pts, QuadSettings(check=True))
    ref = _per_chord_amplitude(params, imaging_lens, *pts)
    assert np.max(np.abs(amp - ref)) <= 1e-13


def _dense_mask_amplitude(params, lens, x1, y1, x2, y2, nodes):
    """Reference: the disc as a dense 0/1 mask matmul over numpy's
    Gauss-Legendre nodes."""
    k = params.k
    t, w = leggauss(nodes)
    xi, wxi = lens.aperture_radius * t, lens.aperture_radius * w
    mask = (xi[:, None] ** 2 + xi[None, :] ** 2 <= lens.aperture_radius**2).astype(float)
    quad_phase = np.exp(1j * (0.5 * k / lens.v - 0.5 * k / lens.f) * xi * xi) * wxi

    def raw(a1, b1, a2, b2):
        vx = axis_amplitude(params, a1[:, None], xi) * np.exp(
            -1j * k * np.outer(a2, xi) / lens.v
        ) * quad_phase
        vy = axis_amplitude(params, b1[:, None], xi) * np.exp(
            -1j * k * np.outer(b2, xi) / lens.v
        ) * quad_phase
        return np.sum(vx * (vy @ mask), axis=1)

    zero = np.zeros(1)
    return raw(x1, y1, x2, y2) / raw(zero, zero, zero, zero)[0] * fresnel_kernel(
        lens.v, k, x2, y2
    )


def _psf_line(params, lens, x1=0.7e-3, y1=-0.4e-3, angle=0.6):
    airy = AIRY_FIRST_ZERO * lens.v / (params.k * lens.aperture_radius)
    r = np.linspace(0.2, 1.6, 141) * airy
    m = ghost_magnification(params, lens)
    x2 = -m * x1 + r * np.cos(angle)
    y2 = -m * y1 + r * np.sin(angle)
    return np.full(141, x1), np.full(141, y1), x2, y2


@functools.lru_cache(maxsize=None)
def _lattice_gap(lens, nodes):
    """Largest distance on the clipped PSF line from the dense-mask lattice
    at ``nodes`` to the disc rule at its default count."""
    params = _wide_source()
    pts = _psf_line(params, lens)
    amp = imaging_amplitude(params, lens, *pts)
    return np.max(np.abs(_dense_mask_amplitude(params, lens, *pts, nodes) - amp))


@pytest.mark.parametrize("n", [512, 2048])
def test_chord_contraction_matches_dense_mask_reference(imaging_lens, n):
    # the chord-weight contraction at an explicit count is the converged
    # value; the dense-mask lattice over n Gauss-Legendre nodes per axis
    # differs from it by the mask's first-order defect, 0.207 / n here
    params = _wide_source()
    pts = _psf_line(params, imaging_lens)
    amp = imaging_amplitude(params, imaging_lens, *pts)
    assert np.max(np.abs(_quiet_amp(params, imaging_lens, *pts, n) - amp)) <= 1e-13
    assert 0.19 <= _lattice_gap(imaging_lens, n) * n <= 0.23


def test_dense_mask_lattice_converges_to_the_disc_rule_at_first_order(imaging_lens):
    # the square Gauss-Legendre lattice masked to the disc, which the disc
    # rule replaced, approaches the disc rule's value with its error halving
    # per doubling
    gaps = [_lattice_gap(imaging_lens, n) for n in (1024, 2048)]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("sigma", [3e-3, 40e-3])
@pytest.mark.parametrize("n", [64, 512, 2048])
def test_on_axis_reference_is_the_exact_disc_integral(imaging_lens, sigma, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=sigma, s1=1.33, s2=1.5)
    zero = np.zeros(1)
    ref = _on_axis_raw(params, imaging_lens)
    # the disc rule's own on-axis sum converges to the closed-form integral
    disc = _imaging_raw(params, imaging_lens, zero, zero, zero, zero, n)[0]
    assert abs(disc / ref - 1.0) <= 1e-14
    # a point at the origin normalizes to 1, and so does a unit pixel there
    point = _point_amplitude(params, imaging_lens, zero, zero, zero, zero, n)[0]
    assert abs(point - 1.0) <= 1e-14
    field = _image_field(params, imaging_lens, np.ones((1, 1)), zero, zero, zero, zero, n)
    assert abs(field[0, 0] - 1.0) <= 1e-13


def test_a_psf_scan_evaluates_each_node_count_once(imaging_lens, monkeypatch):
    # the check compares every point at the bandwidth's 24 nodes with 32
    # and returns the values at 24; nothing is evaluated again, and the
    # on-axis reference takes no quadrature. The 141 points run padded to
    # whole 16-point chunks.
    params = _wide_source()
    pts = _psf_line(params, imaging_lens)
    calls = []

    def counted(A, Bx, Cx, By, Cy, rho, nodes):
        calls.append((nodes, Bx.size))
        return disc_sum(A, Bx, Cx, By, Cy, rho, nodes)

    disc_sum = optics._disc_sum
    monkeypatch.setattr(optics, "_disc_sum", counted)
    value = imaging_amplitude(params, imaging_lens, *pts)
    assert calls == [(24, 144), (32, 144)]
    monkeypatch.undo()
    np.testing.assert_array_equal(value, _point_amplitude(params, imaging_lens, *pts, 24))


def _source(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        return SourceParams(wavelength=810e-9, sigma=sigma, s1=1.33, s2=1.5)


# The constants of optics.aperture_nodes' n* were calibrated on the cases
# below, against 1536 to 2048 nodes: at n* the error is near 1e-14, far
# inside DOUBLING_TOL, so the check at ~1.25 n* passes.
# (sigma, aperture radius, object point or "edge", lens object distance u,
# quad.check) of clipped PSF lines; "edge" puts the lens-plane envelope's
# centre, at -(s2/s1) x1, on the aperture's rim. u = s1 + s2 + 0.1 m
# defocuses the lens (Im A != 0).
BANDWIDTH_POINT_CASES = [
    (20e-3, 25e-3, (0.7e-3, -0.4e-3), 2.83, False),
    (40e-3, 25e-3, (0.7e-3, -0.4e-3), 2.83, False),
    (20e-3, 12.5e-3, (0.7e-3, -0.4e-3), 2.83, False),
    (40e-3, 12.5e-3, (0.7e-3, -0.4e-3), 2.83, False),
    (3e-3, 25e-3, "edge", 2.83, True),
    (3e-3, 12.5e-3, "edge", 2.83, True),
    (3e-3, 25e-3, (4e-3, 4e-3), 2.83, True),
    (40e-3, 25e-3, (0.7e-3, -0.4e-3), 2.93, True),
]

# (sigma, aperture radius, pattern centre or "edge", quad.check) of 16^2
# maps of an 8^2 half plane over 1 mm, the camera over its image
BANDWIDTH_MAP_CASES = [
    (20e-3, 25e-3, 0.0, False),
    (40e-3, 25e-3, 0.0, False),
    (20e-3, 12.5e-3, 0.0, False),
    (40e-3, 12.5e-3, 0.0, False),
    (3e-3, 25e-3, "edge", True),
]

# the extremes of a sweep over sigma 1-40 mm, aperture radius 5-60 mm,
# patterns of 1-8 mm and points in focus and 5 cm out of it (u = 2.88 m),
# with the fields of the cases above
SWEEP_POINT_CASES = [
    (1e-3, 25e-3, "edge", 2.83, True),
    (40e-3, 5e-3, (0.7e-3, -0.4e-3), 2.83, False),
    (3e-3, 60e-3, "edge", 2.83, True),
    (20e-3, 25e-3, (0.7e-3, -0.4e-3), 2.88, True),
]
# (sigma, aperture radius, pattern centre or "edge", quad.check, pattern
# extent)
SWEEP_MAP_CASES = [
    (1e-3, 25e-3, "edge", True, 1e-3),
    (40e-3, 5e-3, 0.0, False, 1e-3),
    (3e-3, 60e-3, "edge", True, 1e-3),
    (40e-3, 25e-3, 0.0, False, 8e-3),
]


def _edge_or(place, params, rho):
    return rho * params.s1 / params.s2 if place == "edge" else place


def _auto_points(monkeypatch, sigma, rho, obj, u, check):
    """(values, 2048-node reference, counts evaluated) of the automatic count
    on one clipped PSF line."""
    params, lens = _source(sigma), LensSystem(f=1.5, u=u, aperture_radius=rho)
    x1, y1 = (_edge_or(obj, params, rho), 0.0) if obj == "edge" else obj
    airy = AIRY_FIRST_ZERO * lens.v / (params.k * rho)
    r = np.linspace(0.2, 1.6, 141) * airy
    pts = (np.full(141, x1), np.full(141, y1),
           -lens.magnification * x1 + r * np.cos(0.6), -lens.magnification * y1 + r * np.sin(0.6))
    counts = []

    def counted(*args):
        counts.append(args[-1])
        return disc_sum(*args)

    disc_sum = optics._disc_sum
    monkeypatch.setattr(optics, "_disc_sum", counted)
    value = imaging_amplitude(params, lens, *pts, QuadSettings(check=check))
    monkeypatch.undo()
    return value, _point_amplitude(params, lens, *pts, 2048), counts


def _auto_map(monkeypatch, sigma, rho, centre, check, extent=1e-3):
    """(last field, its 2048-node reference, counts contracted) of the
    automatic count on one 16^2 map of an 8^2 half plane over extent."""
    params, lens = _source(sigma), LensSystem(f=1.5, u=2.83, aperture_radius=rho)
    c = _edge_or(centre, params, rho)
    m = ghost_magnification(params, lens)
    pattern = pattern_from_extent(half_plane_pattern(n=8).grid, (extent, extent), center=(c, 0.0))
    grid = GridSpec(nx=16, ny=16, extent_x=m * extent, extent_y=m * extent,
                    center=(-m * c, 0.0))
    counts = []

    def reference(*args):
        counts.append(args[-1])
        return _image_field(*args[:-1], 2048)

    field, ref = _map_fields(monkeypatch, params, lens, pattern, 0.3, -0.5, grid,
                             QuadSettings(check=check), reference=reference)
    return field, ref, counts


@pytest.mark.parametrize("case", BANDWIDTH_POINT_CASES)
def test_bandwidth_count_matches_a_2048_node_reference_on_points(monkeypatch, case):
    # the count sized from the bandwidth is within the disc rule's per-chord
    # tolerance of the converged value, far inside DOUBLING_TOL
    value, ref, _ = _auto_points(monkeypatch, *case)
    assert np.max(np.abs(value - ref)) <= 1e-13


@pytest.mark.parametrize("case", BANDWIDTH_MAP_CASES)
def test_bandwidth_count_matches_a_2048_node_reference_on_maps(monkeypatch, case):
    field, ref, _ = _auto_map(monkeypatch, *case)
    assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", BANDWIDTH_POINT_CASES + SWEEP_POINT_CASES)
def test_automatic_points_evaluate_two_counts_where_the_first_check_passes(
    monkeypatch, case
):
    # a miss would warn, or raise under quad.check
    with warnings.catch_warnings():
        warnings.simplefilter("error", ApertureSamplingWarning)
        _, _, counts = _auto_points(monkeypatch, *case)
    assert len(counts) == 2 and counts[1] == finer_nodes(counts[0])


@pytest.mark.parametrize("case", BANDWIDTH_MAP_CASES + SWEEP_MAP_CASES)
def test_automatic_maps_evaluate_two_counts_where_the_first_check_passes(monkeypatch, case):
    # the first on the whole camera, then the finer one on the strided
    # sub-camera; a miss would warn, or raise under quad.check
    with warnings.catch_warnings():
        warnings.simplefilter("error", ApertureSamplingWarning)
        _, _, counts = _auto_map(monkeypatch, *case)
    n = counts[0]
    assert counts == [n, finer_nodes(n)]


def test_point_blocks_do_not_change_bytes(imaging_lens, monkeypatch):
    params = _wide_source()
    pts = _psf_line(params, imaging_lens)
    whole = _quiet_amp(params, imaging_lens, *pts, 512)
    monkeypatch.setattr(optics, "_POINT_BLOCK_ELEMENTS", 7 * 512)
    blocked = _quiet_amp(params, imaging_lens, *pts, 512)
    assert blocked.tobytes() == whole.tobytes()


def test_doubling_check_passes_where_the_aperture_clips(imaging_lens):
    # the disc rule converges spectrally where the aperture clips, so the
    # default tol = 1e-8 holds at the default node count
    params = _wide_source()
    pts = _psf_line(params, imaging_lens)
    assert lens_plane_nodes(params, imaging_lens, QuadSettings(check=True), *pts)[0] > 0
    imaging_amplitude(params, imaging_lens, *pts, QuadSettings(check=True))


def test_explicit_node_count_is_capped():
    # the aperture rule's n x n weights bound a given count, and a sized
    # one, to MAX_NODES; its check runs at 2560
    assert MAX_NODES == 2048
    assert QuadSettings(nodes=MAX_NODES).nodes == MAX_NODES
    with pytest.raises(ParameterError, match="exceeds"):
        QuadSettings(nodes=MAX_NODES + 1)
    assert aperture_nodes(QuadSettings(), True, 1e5, 0.09) == MAX_NODES
    assert finer_nodes(MAX_NODES) == 2560


def _sampling_warning_of(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    found = [w for w in caught if issubclass(w.category, ApertureSamplingWarning)]
    assert len(found) == 1
    return found[0]


def test_sampling_warning_points_at_the_callers_line(imaging_params, imaging_lens):
    # 64 nodes miss the doubling check for both calls: an image point 2 mm
    # from its object's conjugate, and a map over a 4 mm camera
    quad = QuadSettings(nodes=64)
    pattern = uniform_pattern(8, 4e-3, 0.0)
    grid = GridSpec(nx=16, ny=16, extent_x=4e-3, extent_y=4e-3)
    calls = [
        lambda: imaging_amplitude(imaging_params, imaging_lens, 0.0, 0.0, 2e-3, 0.0, quad),
        lambda: ghost_image_map(imaging_params, imaging_lens, pattern, 0.3, 0.2, grid, quad),
    ]
    for call in calls:
        caught = _sampling_warning_of(call)
        assert caught.filename == __file__
        assert caught.lineno == call.__code__.co_firstlineno
