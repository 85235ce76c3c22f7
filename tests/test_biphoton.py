import dataclasses
import math
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
from ghostsim import biphoton, experiments
from ghostsim.biphoton import (
    DOUBLING_TOL,
    MAX_NODES,
    ORACLE_HALF_WIDTH_SIGMAS,
    _faddeeva,
    _leggauss,
    axis_opening_mean,
    converged_nodes,
    doubling_change,
    finer_nodes,
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
    oracle = quadrature_oracle_amplitude(
        fringe_params, x1, y1, x2, y2, QuadSettings(nodes=2048)
    )
    rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
    assert rel < 1e-6


def test_oracle_normalized_at_origin(fringe_params):
    val = quadrature_oracle_amplitude(
        fringe_params, 0.0, 0.0, 0.0, 0.0, QuadSettings(nodes=256)
    )
    assert complex(val) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_oracle_doubling_check_passes_at_default_nodes(fringe_params):
    quadrature_oracle_amplitude(
        fringe_params, 1e-3, 0.0, -0.5e-3, 0.0, QuadSettings(check=True)
    )


def test_oracle_doubling_check_catches_coarse_quadrature(fringe_params):
    with pytest.raises(ConvergenceError):
        quadrature_oracle_amplitude(
            fringe_params, 1e-3, 0.0, -0.5e-3, 0.0,
            QuadSettings(nodes=64, check=True),
        )


@pytest.mark.parametrize("quad", [QuadSettings(), QuadSettings(check=True)])
def test_oracle_of_no_points_is_empty(fringe_params, quad):
    # the doubling check under quad.check once took numpy's max of nothing
    empty = np.zeros(0)
    value = quadrature_oracle_amplitude(fringe_params, empty, empty, empty, empty, quad)
    assert value.shape == (0,)


def _direct_axis_integral(params, a1, a2, nodes, half_width):
    """The oracle's per-axis integral as first written: one complex exp over
    every (point, node) pair, then the weighted sum."""
    t, wts = _leggauss(nodes)
    t = t * half_width
    wts = wts * half_width
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
# the direct sum over the oracle's own truncation
@pytest.mark.parametrize("half_width_sigmas", [ORACLE_HALF_WIDTH_SIGMAS])
@pytest.mark.parametrize("points", [
    (_LATTICE[:, None, None, None], _LATTICE[None, :, None, None],
     _LATTICE[None, None, :, None], _LATTICE[None, None, None, :]),
    (_LINE, 0.0, -0.4e-3, 0.0),
    (0.0, _LINE, 0.0, 1.1e-3),
], ids=["lattice", "x-line", "y-line"])
def test_oracle_matches_direct_quadrature(fringe_params, nodes, half_width_sigmas, points):
    # the folded cosine sum over distinct shifts is the same quadrature as
    # the direct sum over all points and nodes, up to rounding; the direct
    # oracle's origin value is 1
    folded = quadrature_oracle_amplitude(fringe_params, *points, QuadSettings(nodes=nodes))
    direct = _direct_oracle(fringe_params, *points, nodes, half_width_sigmas)
    assert folded.shape == np.broadcast_shapes(*(np.shape(a) for a in points))
    assert np.max(np.abs(folded.ravel() - direct)) <= 1e-12


def test_oracle_widening_window_is_stable(fringe_params):
    # truncating the source integral at ORACLE_HALF_WIDTH_SIGMAS = 4 already
    # buries the tail: the direct sum over 5 sigma moves it by less than 1e-6
    a = quadrature_oracle_amplitude(
        fringe_params, 1e-3, 0.0, -1e-3, 0.0, QuadSettings(nodes=2048)
    )
    [b] = _direct_oracle(fringe_params, 1e-3, 0.0, -1e-3, 0.0, 2048, 5.0)
    assert abs(a - b) / abs(b) < 1e-6


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes and the doubling check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 512])
def test_leggauss_matches_numpy(n):
    from numpy.polynomial.legendre import leggauss

    x, w = _leggauss(n)
    xr, wr = leggauss(n)
    assert np.max(np.abs(x - xr)) <= 4e-16
    # numpy's outermost weights are themselves off by up to 1.1e-10 relative
    # at n = 512 (see the mpmath test below), so the comparison is scaled by
    # the largest weight
    assert np.max(np.abs(w - wr)) <= 1e-12 * np.max(wr)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", [64, 512])
def test_leggauss_weights_match_extended_precision(n):
    mpmath = pytest.importorskip("mpmath")
    x, w = _leggauss(n)
    # every 8th node of the upper half, and the outermost one, where numpy's
    # weights are least accurate
    with mpmath.workdps(40):
        for i in list(range(n // 2, n, max(1, n // 64))) + [n - 1]:
            xi = mpmath.mpf(float(x[i]))
            for _ in range(3):
                p, q = mpmath.legendre(n, xi), mpmath.legendre(n - 1, xi)
                xi -= p * (xi * xi - 1) / (n * (xi * p - q))
            p, q = mpmath.legendre(n, xi), mpmath.legendre(n - 1, xi)
            exact_w = 2 / ((1 - xi * xi) * (n * (xi * p - q) / (xi * xi - 1)) ** 2)
            assert abs(x[i] - float(xi)) <= 2.3e-16
            assert abs(w[i] - float(exact_w)) <= 1e-12 * float(exact_w)


@pytest.mark.parametrize("n", [2048, 4363, 8192])
def test_leggauss_moments_at_large_n(n):
    x, w = _leggauss(n)
    exact = {
        "1": (np.sum(w), 2.0),
        "x^2": (np.sum(w * x * x), 2.0 / 3.0),
        "cos 50x": (np.sum(w * np.cos(50 * x)), 2.0 * math.sin(50.0) / 50.0),
        "exp(-400x^2)": (
            np.sum(w * np.exp(-400 * x * x)), math.sqrt(math.pi) / 20.0 * math.erf(20.0)
        ),
    }
    for name, (got, want) in exact.items():
        assert abs(got - want) <= 1e-15, name


@pytest.mark.parametrize("n", [512, 2048, 4363])
def test_leggauss_takes_two_recurrence_passes(n, monkeypatch):
    # one third-order step from Tricomi's guesses converges, and the second
    # pass verifies it and supplies the weights
    passes = []

    def counted(n, x):
        passes.append(n)
        return slope(n, x)

    slope = biphoton._legendre_slope
    monkeypatch.setattr(biphoton, "_legendre_slope", counted)
    _leggauss.cache_clear()
    try:
        _leggauss(n)
    finally:
        _leggauss.cache_clear()
    assert passes == [n, n]


def test_leggauss_is_cached_read_only():
    x, w = _leggauss(16)
    assert _leggauss(16)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("shape", [(256, 256), (7, 300), (2, 5), (1000, 2), (5, 17)])
def test_doubling_probe_spans_the_output(shape, imaging_lens, monkeypatch):
    # the one probe left is the image map's: converged_nodes checks at most
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

    monkeypatch.setattr(experiments, "pattern_image_field", flat_field)
    cmap = ghost_image_map(params, imaging_lens, half_plane_pattern(n=8), np.deg2rad(-45.0),
                           np.deg2rad(-45.0), grid)
    assert cmap.meta["lens_path"] == "quadrature"
    *checked, (x2c, y2c) = calls
    assert len(checked) == 2
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


def test_doubling_search_evaluates_each_count_once_and_returns_its_values():
    # the values settle between 72 and 96 nodes; the search climbs by
    # finer_nodes, asks for each count once and hands back every value at
    # the count it chose
    asked = []

    def evaluate(n):
        asked.append(n)
        return np.array([1.0, 2.0, 4.0 + 1e6 * 2.0 ** (-n / 2)])

    nodes, change, values = converged_nodes(evaluate, 32, QuadSettings(), "the map")
    assert nodes == 96 and change < DOUBLING_TOL
    assert asked == [32, 40, 56, 72, 96, 120]
    np.testing.assert_array_equal(values, [1.0, 2.0, 4.0 + 1e6 * 2.0**-48])


def test_finer_count_is_a_quarter_more_or_the_double_of_an_explicit_one():
    auto = QuadSettings()
    assert [finer_nodes(n, auto) for n in (8, 24, 352, 1856, MAX_NODES)] == [
        16, 32, 440, MAX_NODES, 2560]
    assert finer_nodes(64, QuadSettings(nodes=64)) == 128


def _settled_at(fine):
    """Values [1, 2, 4] at 64 nodes and [1, 2, 4] + fine at 128."""
    coarse = np.array([1.0, 2.0, 4.0])
    return lambda n: coarse if n == 64 else coarse + fine


def test_doubling_check_raises_above_tolerance():
    # a change of DOUBLING_TOL = 1e-8 passes, one of 1e-7 raises
    assert DOUBLING_TOL == 1e-8
    quad = QuadSettings(nodes=64, check=True)
    converged_nodes(_settled_at([0, 0, 4e-8]), 64, quad, "the map")
    with pytest.raises(
        ConvergenceError,
        match=r"64 -> 128 nodes changed the map by 1.000e-07 relative \(tol 1e-08\)",
    ):
        converged_nodes(_settled_at([0, 0, 4e-7]), 64, quad, "the map")


def test_doubling_check_returns_the_change():
    quad = QuadSettings(nodes=64, check=True)
    nodes, change, values = converged_nodes(_settled_at([0, 0, 4e-8]), 64, quad, "the map")
    assert (nodes, change) == (64, pytest.approx(1e-8))
    np.testing.assert_array_equal(values, [1.0, 2.0, 4.0])
    coarse = np.array([1.0, 2.0, 4.0])
    assert doubling_change(coarse, coarse + [0, 0, -4e-7]) == pytest.approx(1e-7)
    # no values: no change, where numpy's max of nothing raised
    assert doubling_change(np.zeros(0), np.zeros(0)) == 0.0


def test_doubling_check_warns_without_check():
    # the same miss without quad.check warns at the caller's line and
    # returns the change
    message = "64 -> 128 nodes changed the map by 1.000e-07"
    with pytest.warns(ApertureSamplingWarning, match=message) as caught:
        nodes, change, _ = converged_nodes(
            _settled_at([0, 0, 4e-7]), 64, QuadSettings(nodes=64), "the map"
        )
    assert (nodes, change) == (64, pytest.approx(1e-7))
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
