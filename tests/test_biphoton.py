import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ghostsim import (
    ApertureSamplingWarning,
    ConvergenceError,
    GridSpec,
    ParameterError,
    ParaxialWarning,
    QuadSettings,
    SourceParams,
    SourceRegimeWarning,
    axis_amplitude,
    closed_form_amplitude,
    envelope_coefficients,
    ghost_image_map,
    ghost_magnification,
    half_plane_pattern,
    quadrature_oracle_amplitude,
)
from ghostsim import biphoton, optics
from ghostsim.biphoton import (
    DOUBLING_TOL,
    MAX_NODES,
    ORACLE_MAX_NODES,
    ORACLE_TAIL_CUT,
    _faddeeva,
    axis_opening_mean,
    check_refinement,
    finer_nodes,
    oracle_nodes,
)

# Frozen reference values for the fringe geometry (lambda=810 nm, sigma=3 mm,
# s1=1.33 m, s2=1.0 m), cross-checked against the direct quadrature of the
# source integral during development.
C_ENV = 36193.6857665242
C_CHIRP = 2213321.255917696
CORRELATION_WIDTH = 0.0037167948988360046


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


def test_source_params_validation():
    with pytest.raises(ParameterError):
        SourceParams(wavelength=-810e-9, sigma=3e-3, s1=1.33, s2=1.0)
    with pytest.raises(ParameterError):
        SourceParams(wavelength=810e-9, sigma=0.0, s1=1.33, s2=1.0)
    with pytest.raises(ParameterError):
        SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=np.inf)
    # finite inputs whose envelope coefficients overflow or vanish
    with pytest.raises(ParameterError, match="envelope"):
        SourceParams(wavelength=810e-9, sigma=1e300, s1=1.33, s2=1.0)
    with pytest.raises(ParameterError, match="envelope"):
        SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1e300)
    with pytest.raises(ParameterError, match="envelope"):
        SourceParams(wavelength=1e300, sigma=3e-3, s1=1.33, s2=1.0)


def test_wavenumber():
    p = SourceParams(**{"wavelength": 810e-9, "sigma": 3e-3, "s1": 1.33, "s2": 1.0})
    assert p.k == pytest.approx(2 * np.pi / 810e-9, rel=1e-15)


def test_short_propagation_distance_warns():
    with pytest.warns(SourceRegimeWarning):
        SourceParams(wavelength=810e-9, sigma=3e-3, s1=0.05, s2=1.0)


def test_quad_settings_validation():
    QuadSettings(nodes=64)
    with pytest.raises(ParameterError):
        QuadSettings(nodes=32)
    # the truncation and the tolerance are module constants, not settings
    assert [f.name for f in dataclasses.fields(QuadSettings)] == ["nodes", "check"]


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_origin_value_is_exactly_one(fringe_params):
    assert complex(closed_form_amplitude(fringe_params, 0.0, 0.0, 0.0, 0.0)) == 1.0 + 0.0j


def test_envelope_coefficients_frozen(fringe_params):
    c_env, c_chirp = envelope_coefficients(fringe_params)
    assert c_env == pytest.approx(C_ENV, rel=1e-12)
    assert c_chirp == pytest.approx(C_CHIRP, rel=1e-12)


def test_amplitude_is_separable(fringe_params):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2e-3, 2e-3, size=(30, 4))
    full = closed_form_amplitude(fringe_params, *pts.T)
    split = axis_amplitude(fringe_params, pts[:, 0], pts[:, 2]) * axis_amplitude(
        fringe_params, pts[:, 1], pts[:, 3]
    )
    np.testing.assert_array_equal(full, split)


def test_amplitude_symmetric_under_axis_exchange(fringe_params):
    rng = np.random.default_rng(6)
    x1, y1, x2, y2 = rng.uniform(-2e-3, 2e-3, size=(4, 20))
    a = closed_form_amplitude(fringe_params, x1, y1, x2, y2)
    b = closed_form_amplitude(fringe_params, y1, x1, y2, x2)
    np.testing.assert_allclose(a, b, rtol=1e-13)


def test_amplitude_broadcasts():
    p = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
    x2 = np.linspace(-1e-3, 1e-3, 7)[None, :]
    y2 = np.linspace(-1e-3, 1e-3, 5)[:, None]
    out = closed_form_amplitude(p, 1e-4, 0.0, x2, y2)
    assert out.shape == (5, 7)


def test_far_off_axis_coordinates_warn(fringe_params):
    # the quadratic-phase model is only trusted inside a few percent of s
    with pytest.warns(ParaxialWarning):
        closed_form_amplitude(fringe_params, 0.08, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# position correlation
# ---------------------------------------------------------------------------


def test_locus_maximizes_envelope(fringe_params):
    # |Phi| over x2 peaks on the anticorrelation locus x2 = -x1 s2/s1
    x1 = 1e-3
    lx = -x1 * fringe_params.s2 / fringe_params.s1
    x2 = np.linspace(lx - 2e-3, lx + 2e-3, 801)
    mags = np.abs(closed_form_amplitude(fringe_params, x1, 0.0, x2, 0.0))
    assert abs(x2[np.argmax(mags)] - lx) < 6e-6


def test_correlation_width_frozen_and_one_sigma(fringe_params):
    # 1/e half-width of |Phi|^2 in the correlation variable x1/s1 + x2/s2
    c_env, _ = envelope_coefficients(fringe_params)
    w = 1.0 / np.sqrt(2.0 * c_env)
    assert w == pytest.approx(CORRELATION_WIDTH, rel=1e-12)
    # |Phi| falls to exp(-1/2) when the summed coordinate equals the width
    mag = np.abs(closed_form_amplitude(fringe_params, 0.0, 0.0, fringe_params.s2 * w, 0.0))
    assert mag == pytest.approx(np.exp(-0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_closed_form_on_small_lattice(fringe_params):
    g = np.linspace(-2e-3, 2e-3, 3)
    x1, y1, x2, y2 = np.meshgrid(g, g, g, g, indexing="ij")
    closed = closed_form_amplitude(fringe_params, x1, y1, x2, y2)
    oracle = quadrature_oracle_amplitude(fringe_params, x1, y1, x2, y2)
    rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
    assert rel < 1e-12


def test_oracle_normalized_at_origin(fringe_params):
    val = quadrature_oracle_amplitude(fringe_params, 0.0, 0.0, 0.0, 0.0)
    assert complex(val) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_oracle_doubling_check_passes_at_default_nodes(fringe_params):
    quadrature_oracle_amplitude(
        fringe_params, 1e-3, 0.0, -0.5e-3, 0.0, QuadSettings(check=True)
    )


def _oracle_count(monkeypatch, count):
    """Make the oracle take count(sized count) nodes, its check unchanged."""
    sized = biphoton.oracle_nodes
    monkeypatch.setattr(biphoton, "oracle_nodes", lambda *args: count(sized(*args)))


def test_oracle_doubling_check_catches_coarse_quadrature(fringe_params, monkeypatch):
    _oracle_count(monkeypatch, lambda n: 64)
    with pytest.raises(ConvergenceError, match="refining 64 -> 80 nodes"):
        quadrature_oracle_amplitude(
            fringe_params, 1e-3, 0.0, -0.5e-3, 0.0, QuadSettings(check=True)
        )


def test_oracle_checks_its_nodes_without_being_asked(monkeypatch):
    # the amplitude subcommand's default line under a sigma = 6 mm source:
    # the sized count resolves its chirp and passes its check. 0.6 of it
    # does not: the miss warns by default and raises under quad.check, and
    # the values are the coarse count's
    params = SourceParams(wavelength=810e-9, sigma=6e-3, s1=1.33, s2=1.0)
    x1 = np.linspace(-3e-3, 3e-3, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadrature_oracle_amplitude(params, x1, 0.0, 0.0, 0.0, QuadSettings(check=True))
    coarse = int(0.6 * oracle_nodes(params, x1, 0.0, 0.0, 0.0))
    miss = f"refining {coarse} -> {finer_nodes(coarse)} nodes"
    _oracle_count(monkeypatch, lambda n: int(0.6 * n))
    with pytest.warns(ApertureSamplingWarning, match=miss):
        given = quadrature_oracle_amplitude(params, x1, 0.0, 0.0, 0.0)
    with pytest.raises(ConvergenceError, match=miss):
        quadrature_oracle_amplitude(params, x1, 0.0, 0.0, 0.0, QuadSettings(check=True))
    direct = _direct_oracle(params, x1, 0.0, 0.0, 0.0, coarse, ORACLE_TAIL_CUT)
    assert np.max(np.abs(given - direct)) <= 1e-12


@pytest.mark.parametrize("sigma", [3e-3, 6e-3, 10e-3, 20e-3, 40e-3])
def test_sized_oracle_matches_the_closed_form_on_the_acceptance_lattice(sigma, monkeypatch):
    # criterion 1's 5^4 lattice: the sized count passes its check, with no
    # Gauss-Legendre rule built. What is left is rounding: 2e-14 at 3 and
    # 6 mm, 1.3e-13 at 10 mm, 3.4e-13 at 20 mm and 1.0e-12 at 40 mm, whose
    # rule takes 147,336 steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=sigma, s1=1.33, s2=1.0)
    g = np.linspace(-2e-3, 2e-3, 5)
    points = np.meshgrid(g, g, g, g, indexing="ij")
    _no_rule(monkeypatch)
    oracle = quadrature_oracle_amplitude(params, *points, QuadSettings(check=True))
    closed = closed_form_amplitude(params, *points)
    bound = 5e-12 if sigma == 40e-3 else 1e-12
    assert np.max(np.abs(closed - oracle) / np.abs(closed)) <= bound


def test_oracle_count_is_sized_from_its_bandwidth(fringe_params):
    # n = ceil(T Omega / 2 pi), T = 6.5 sigma and Omega = k u + sqrt((k u)^2
    # + (6.5 W)^2): on the amplitude subcommand's default line 879, and 823
    # at the origin alone, where Omega = 6.5 W
    x1 = np.linspace(-3e-3, 3e-3, 201)
    assert oracle_nodes(fringe_params, x1, 0.0, 0.0, 0.0) == 879
    assert oracle_nodes(fringe_params, 0.0, 0.0, 0.0, 0.0) == 823
    # the points' shifts widen the band on either axis alike
    assert (oracle_nodes(fringe_params, 0.0, x1, 0.0, 0.0)
            == oracle_nodes(fringe_params, 0.0, 0.0, x1 / 1.33, 0.0)
            == 879)


def _no_rule(monkeypatch):
    """Make building any Gauss-Legendre rule fail the test: biphoton has no
    rule of its own, and numpy's refuses."""
    assert not [name for name in vars(biphoton) if "leggauss" in name.lower()]

    def refuse(n):
        raise AssertionError("a Gauss-Legendre rule was built")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)


@pytest.mark.parametrize("points", [
    (np.nan, 0.0, 0.0, 0.0),
    (0.0, np.nan, 0.0, 0.0),
    (0.0, 0.0, 0.0, np.inf),
    (np.array([0.0, np.nan]), 0.0, 0.0, 0.0),
], ids=["nan-x", "nan-y", "inf", "nan-in-array"])
@pytest.mark.parametrize("nodes", [None, 128])
def test_oracle_refuses_non_finite_points_before_building_a_rule(
    fringe_params, monkeypatch, points, nodes
):
    # refused before the count is sized, whose bandwidth would be NaN, and
    # before a given count, which the oracle refuses too
    _no_rule(monkeypatch)
    with pytest.raises(ParameterError, match="must be finite"):
        quadrature_oracle_amplitude(fringe_params, *points, QuadSettings(nodes=nodes))


def _no_kernel(monkeypatch):
    """Make any sum of the oracle's fail the test."""
    def refuse(*args):
        raise AssertionError("an oracle kernel ran")

    monkeypatch.setattr(biphoton, "_axis_integral", refuse)


def test_oracle_refuses_a_node_count_before_any_kernel(fringe_params, monkeypatch):
    # the oracle sizes its own rule
    _no_kernel(monkeypatch)
    with pytest.raises(ParameterError, match="takes no node count"):
        quadrature_oracle_amplitude(fringe_params, 1e-3, 0.0, 0.0, 0.0, QuadSettings(nodes=2048))


def test_oracle_limit_admits_sigma_40mm_and_refuses_more_before_building_a_rule(
    fringe_params, monkeypatch
):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        wide = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.0)
    x1 = np.linspace(-3e-3, 3e-3, 201)
    assert oracle_nodes(wide, x1, 0.0, 0.0, 0.0) == 146933 <= ORACLE_MAX_NODES
    # an image point 10 m off axis sizes to 481,483; one 20 m off, to
    # 962,964
    assert oracle_nodes(fringe_params, 0.0, 0.0, 10.0, 0.0) == 481483
    _no_kernel(monkeypatch)
    with pytest.raises(ParameterError, match="above its limit 524288"):
        quadrature_oracle_amplitude(fringe_params, 0.0, 0.0, 20.0, 0.0)


@pytest.mark.parametrize("points", [
    (0.0, 0.0, 1e308, 0.0),
    (1e308, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1e300),
], ids=["x2", "x1", "y2"])
def test_oracle_refuses_an_overflowing_count_before_any_kernel(fringe_params, monkeypatch,
                                                               points):
    # an infinite bandwidth ended in OverflowError at math.ceil, and a finite
    # one past the limit printed a 300-digit count
    _no_kernel(monkeypatch)
    with pytest.raises(ParameterError, match="above its limit 524288") as refused:
        quadrature_oracle_amplitude(fringe_params, *points)
    assert len(str(refused.value)) < 200


def test_oracle_peak_memory_at_sigma_40mm():
    # the sigma = 40 mm default line: 146,933 steps, whose kernel runs in
    # blocks of 8 MB, one alive at a time; 12.9 MB traced at its peak
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        wide = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.0)
    x1 = np.linspace(-3e-3, 3e-3, 201)
    tracemalloc.start()
    try:
        quadrature_oracle_amplitude(wide, x1, 0.0, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


@pytest.mark.parametrize("quad", [QuadSettings(), QuadSettings(check=True)])
def test_oracle_of_no_points_is_empty(fringe_params, quad):
    # the doubling check under quad.check once took numpy's max of nothing
    empty = np.zeros(0)
    value = quadrature_oracle_amplitude(fringe_params, empty, empty, empty, empty, quad)
    assert value.shape == (0,)


def _direct_axis_integral(params, a1, a2, nodes, half_width):
    """The oracle's per-axis integral written out: the trapezoidal rule of
    nodes steps on each side of 0 over +-half_width, one complex exp over
    every (point, node) pair, then the weighted sum."""
    t = np.linspace(-half_width, half_width, 2 * nodes + 1)
    wts = np.full(t.size, half_width / nodes)
    wts[[0, -1]] *= 0.5
    a1 = np.atleast_1d(np.asarray(a1, float))[:, None]
    a2 = np.atleast_1d(np.asarray(a2, float))[:, None]
    tt = t[None, :]
    phase = 0.5 * params.k * ((a1 - tt) ** 2 / params.s1 + (a2 - tt) ** 2 / params.s2)
    integrand = np.exp(-(tt**2) / params.sigma**2 + 1j * phase)
    return integrand @ wts


def _direct_oracle(params, x1, y1, x2, y2, nodes, half_width_sigmas):
    x1, y1, x2, y2 = (np.ravel(a) for a in np.broadcast_arrays(x1, y1, x2, y2))
    half_width = half_width_sigmas * params.sigma
    ix = _direct_axis_integral(params, x1, x2, nodes, half_width)
    iy = _direct_axis_integral(params, y1, y2, nodes, half_width)
    i0 = _direct_axis_integral(params, 0.0, 0.0, nodes, half_width)[0]
    return ix * iy / i0**2


_LATTICE = np.array([-1.5e-3, 0.0, 0.7e-3, 0.7e-3, 2e-3])   # 0.7 mm twice
_LINE = np.linspace(-3e-3, 3e-3, 41)


@pytest.mark.parametrize("nodes", [65, 2048])
# the direct sum over a +-4 sigma window and over the oracle's own
@pytest.mark.parametrize("half_width_sigmas", [4.0, ORACLE_TAIL_CUT])
@pytest.mark.parametrize("points", [
    (_LATTICE[:, None, None, None], _LATTICE[None, :, None, None],
     _LATTICE[None, None, :, None], _LATTICE[None, None, None, :]),
    (_LINE, 0.0, -0.4e-3, 0.0),
    (0.0, _LINE, 0.0, 1.1e-3),
], ids=["lattice", "x-line", "y-line"])
def test_oracle_matches_direct_quadrature(
    fringe_params, monkeypatch, nodes, half_width_sigmas, points
):
    # the folded cosine sum over distinct shifts is the same quadrature as
    # the direct sum over all points and nodes, up to rounding of the peak;
    # the direct oracle's origin value is 1. 65 steps do not resolve the
    # chirp, and the oracle's node check says so; 2048 do.
    monkeypatch.setattr(biphoton, "ORACLE_TAIL_CUT", half_width_sigmas)
    _oracle_count(monkeypatch, lambda n: nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        folded = quadrature_oracle_amplitude(fringe_params, *points)
    assert [w.category for w in caught] == [ApertureSamplingWarning] * (nodes == 65)
    direct = _direct_oracle(fringe_params, *points, nodes, half_width_sigmas)
    assert folded.shape == np.broadcast_shapes(*(np.shape(a) for a in points))
    assert np.max(np.abs(folded.ravel() - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_oracle_widening_window_is_stable(fringe_params, monkeypatch):
    # ORACLE_TAIL_CUT = 6.5 cuts both tails at exp(-42.25) = 4.5e-19: a
    # window and a spectrum cut at 8 widths, with their own sized count,
    # move the value by rounding only
    a = quadrature_oracle_amplitude(fringe_params, 1e-3, 0.0, -1e-3, 0.0)
    monkeypatch.setattr(biphoton, "ORACLE_TAIL_CUT", 8.0)
    b = quadrature_oracle_amplitude(fringe_params, 1e-3, 0.0, -1e-3, 0.0)
    assert abs(a - b) / abs(b) <= 1e-14


# ---------------------------------------------------------------------------
# the doubling check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(256, 256), (7, 300), (2, 5), (1000, 2), (5, 17)])
def test_doubling_probe_spans_the_output(shape, imaging_lens, monkeypatch):
    # the one probe left is the image map's: check_refinement checks at most
    # 16 evenly strided camera rows and columns, the first and last included
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SourceRegimeWarning)
        params = SourceParams(wavelength=810e-9, sigma=40e-3, s1=1.33, s2=1.5)
    m = ghost_magnification(params, imaging_lens)
    ny, nx = shape
    grid = GridSpec(nx=nx, ny=ny, extent_x=m * 0.5e-3 * min(nx, 8),
                    extent_y=m * 0.5e-3 * min(ny, 8))
    calls = []

    def flat_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes):
        calls.append((x2c, y2c))
        return np.ones((y2c.size, x2c.size), dtype=complex)

    monkeypatch.setattr(optics, "_image_field", flat_field)
    cmap = ghost_image_map(params, imaging_lens, half_plane_pattern(n=8), np.deg2rad(-45.0),
                           np.deg2rad(-45.0), grid)
    assert cmap.meta["lens_path"] == "quadrature"
    # the first count runs on the whole camera, the finer one on the probe
    (x2c, y2c), *checked = calls
    assert len(checked) == 1
    np.testing.assert_array_equal(x2c, grid.x_centers())
    np.testing.assert_array_equal(y2c, grid.y_centers())
    for x2p, y2p in checked:
        assert x2p.size * y2p.size <= 256
        for probe, full in ((x2p, x2c), (y2p, y2c)):
            picked = np.flatnonzero(np.isin(full, probe))
            np.testing.assert_array_equal(full[picked], probe)
            assert picked.size == min(full.size, 16)
            assert picked[0] == 0 and picked[-1] == full.size - 1
            gaps = np.diff(picked)
            if gaps.size:
                assert gaps.max() - gaps.min() <= 1      # evenly strided


def test_finer_count_is_a_quarter_more_for_every_count():
    # one step whether the count was sized or given, and whatever its size:
    # 64, 1536 and 1856 are checked at 80, 1920 and 2320
    assert [finer_nodes(n) for n in (8, 24, 64, 352, 1536, 1856, MAX_NODES, 351288)] == [
        16, 32, 80, 440, 1920, 2320, 2560, 439112]


def _settled_at(fine):
    """(values at 64 nodes, values at 80): [1, 2, 4] and [1, 2, 4] + fine."""
    coarse = np.array([1.0, 2.0, 4.0])
    return coarse, coarse + fine


def test_doubling_check_raises_above_tolerance():
    # a change of DOUBLING_TOL = 1e-8 passes, one of 1e-7 raises
    assert DOUBLING_TOL == 1e-8
    check_refinement(*_settled_at([0, 0, 4e-8]), 64, True, "the map")
    with pytest.raises(
        ConvergenceError,
        match=r"refining 64 -> 80 nodes changed the map by 1.000e-07 relative \(tol 1e-08\)",
    ):
        check_refinement(*_settled_at([0, 0, 4e-7]), 64, True, "the map")


def test_doubling_check_returns_the_change():
    change = check_refinement(*_settled_at([0, 0, 4e-8]), 64, True, "the map")
    assert change == pytest.approx(1e-8)
    coarse = np.array([1.0, 2.0, 4.0])
    with pytest.warns(ApertureSamplingWarning):
        assert check_refinement(coarse, coarse + [0, 0, -4e-7], 64, False,
                                "the map") == pytest.approx(1e-7)
    # no values: no change, where numpy's max of nothing raised
    assert check_refinement(np.zeros(0), np.zeros(0), 64, True, "the map") == 0.0


def test_doubling_check_warns_without_check():
    # the same miss without quad.check warns at the caller's line and
    # returns the change
    message = "refining 64 -> 80 nodes changed the map by 1.000e-07"
    with pytest.warns(ApertureSamplingWarning, match=message) as caught:
        change = check_refinement(*_settled_at([0, 0, 4e-7]), 64, False, "the map")
    assert change == pytest.approx(1e-7)
    assert caught[0].filename == __file__


# ---------------------------------------------------------------------------
# Faddeeva function and the closed-form opening mean
# ---------------------------------------------------------------------------


def _upper_half_plane(rng, radii, count=500):
    r = radii[0] * (radii[1] / radii[0]) ** rng.uniform(0, 1, count)
    return r * np.exp(1j * rng.uniform(0, np.pi, count))


def test_faddeeva_on_the_imaginary_axis_is_scaled_erfc():
    y = np.linspace(0.0, 20.0, 401)
    want = np.array([math.exp(v * v) * math.erfc(v) for v in y])
    np.testing.assert_allclose(_faddeeva(1j * y), want, rtol=1e-13, atol=0)


def test_faddeeva_matches_its_taylor_series_near_zero():
    rng = np.random.default_rng(5)
    z = np.concatenate([_upper_half_plane(rng, (1e-6, 0.05)), [0.0, 0.05, -0.05, 0.05j]])
    # w(z) = sum_n (iz)^n / Gamma(n/2 + 1); 30 terms reach far below eps at |z| <= 0.05
    want = sum((1j * z) ** n / math.gamma(n / 2 + 1) for n in range(30))
    np.testing.assert_allclose(_faddeeva(z), want, rtol=4e-15, atol=0)


def test_faddeeva_matches_its_asymptote_far_out():
    rng = np.random.default_rng(6)
    z = np.concatenate([_upper_half_plane(rng, (1e3, 1e8)), [1e3, -1e3, 1e3j]])
    want = 1j / (math.sqrt(math.pi) * z) * (1 + 1 / (2 * z * z) + 3 / (4 * z**4))
    np.testing.assert_allclose(_faddeeva(z), want, rtol=2e-15, atol=0)


@pytest.mark.parametrize("lo, hi", [(-1e-3, 1e-3), (0.5e-3, 1.5e-3), (-1.5e-3, -0.5e-3)])
def test_opening_mean_matches_gauss_legendre(fringe_params, lo, hi):
    # at a2 = 0, Re z changes sign at t = 0: the first opening takes the 2G
    # term, the other two do not
    a2 = np.linspace(-1e-3, 1e-3, 9)
    mean, bound = axis_opening_mean(fringe_params, lo, hi, a2)
    t, w = np.polynomial.legendre.leggauss(200)
    offs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    want = 0.5 * w @ axis_amplitude(fringe_params, offs[:, None], a2)
    np.testing.assert_allclose(mean, want, rtol=0, atol=1e-13)
    assert np.all(bound <= 1e-13)


def test_opening_mean_tends_to_the_amplitude_at_its_center(fringe_params):
    a2 = np.linspace(-1e-3, 1e-3, 9)
    mean, _ = axis_opening_mean(fringe_params, 1e-3 - 0.5e-9, 1e-3 + 0.5e-9, a2)
    np.testing.assert_allclose(mean, axis_amplitude(fringe_params, 1e-3, a2), rtol=1e-8)
