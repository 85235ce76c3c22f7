"""Two-photon position amplitude of the Gaussian-source pair.

The closed form used everywhere is

    Phi(x1, y1; x2, y2) = exp(-(c_env + i c_chirp) * r2)
                          * exp(i k/2 * ((x1^2+y1^2)/s1 + (x2^2+y2^2)/s2))

with r2 = (x1/s1 + x2/s2)^2 + (y1/s1 + y2/s2)^2 and

    D       = 4 s1^2 s2^2 + k^2 sigma^4 (s1+s2)^2
    c_env   = k^2 sigma^2 s1^2 s2^2 / D
    c_chirp = k^3 sigma^4 s1 s2 (s1+s2) / (2 D)

All constant prefactors are collapsed into a normalization that makes
Phi(0,0;0,0) = 1 exactly; only relative values are observable. An independent
trapezoidal quadrature of the underlying source integral, normalized the
same way, serves as the correctness oracle for the closed form; its step
follows in closed form from its integrand's spectrum (``oracle_nodes``).

Phi is a product of one factor per axis, a complex Gaussian
exp(-P t^2 + Q t + R) in either plane's coordinate t, and
``_axis_coefficients`` alone forms (P, Q, R). Over a finite slit opening its
mean is an erf difference (``axis_opening_mean``), taken through the Faddeeva
function w(z) of Weideman's rational expansion (``_faddeeva``); ``optics``
adds the lens's terms to (P, Q, R) for its lens-plane kernel.

The node check of every quadrature in the package (the oracle and the
aperture) lives here too: each evaluates its count n and the finer count
``finer_nodes`` names (~1.25n), once each, and ``check_refinement``
compares every value at the two against DOUBLING_TOL. The values at n are
the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ApertureSamplingWarning,
    ConvergenceError,
    NumericError,
    ParameterError,
    ParaxialWarning,
    SourceRegimeWarning,
    check_count,
    outside_stacklevel,
)

# fraction of min(s1, s2) beyond which transverse coordinates draw a warning
PARAXIAL_FRACTION = 0.05


@dataclass(frozen=True)
class SourceParams:
    """Source and geometry parameters of the photon-pair model.

    wavelength: vacuum wavelength in meters.
    sigma: transverse Gaussian width of the pair-creation region, meters.
    s1: distance from the source to the object plane, meters.
    s2: distance from the source to the second plane (interference plane or
        imaging lens), meters.
    """

    wavelength: float
    sigma: float
    s1: float
    s2: float

    def __post_init__(self):
        for name in ("wavelength", "sigma", "s1", "s2"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ParameterError(f"{name} must be finite and > 0, got {val!r}")
        try:
            c_env, c_chirp = envelope_coefficients(self)
        except OverflowError:
            c_env = c_chirp = math.inf
        if not (0 < c_env < math.inf and math.isfinite(c_chirp)):
            raise ParameterError(
                "wavelength, sigma, s1 and s2 give no finite, positive envelope "
                f"coefficient (c_env = {c_env:g})"
            )
        for name in ("s1", "s2"):
            s = getattr(self, name)
            if s < 50.0 * self.sigma:
                warnings.warn(
                    f"{name} = {s:g} m is below 50*sigma = {50 * self.sigma:g} m; "
                    "the far-plane model is strained",
                    SourceRegimeWarning,
                    stacklevel=3,
                )
            if self.k * self.sigma**2 / (2 * np.pi * s) < 1.0:
                warnings.warn(
                    f"k*sigma^2/(2*pi*{name}) < 1; outside the broad-source "
                    "regime the amplitude was derived for",
                    SourceRegimeWarning,
                    stacklevel=3,
                )

    @property
    def k(self) -> float:
        """Wavenumber 2*pi/wavelength in rad/m."""
        return 2.0 * np.pi / self.wavelength


# largest explicit node count per axis, and the most the aperture rule
# sizes. Its weights are an n x n matrix of closed-form sums, built by one
# O(n^3) matmul (optics._disc_rule), so the check of MAX_NODES, at 2560,
# holds 52 MB of weights; larger explicit counts are refused before any
# work.
MAX_NODES = 2048

# relative change against the finer count at which the node check counts a
# quadrature as converged
DOUBLING_TOL = 1e-8


@dataclass(frozen=True)
class QuadSettings:
    """Quadrature controls.

    nodes: the aperture rule's nodes per axis, 64 to
      MAX_NODES; None sizes it to its integrand (optics.aperture_nodes).
      The source oracle sizes its own rule and refuses a count.
    check: when True, a checked change above DOUBLING_TOL raises
      ConvergenceError (every quadrature is checked; without check a miss
      warns ApertureSamplingWarning), and optics.lens_plane_nodes holds the
      closed form to DOUBLING_TOL.
    """

    nodes: Optional[int] = None
    check: bool = False

    def __post_init__(self):
        if self.nodes is not None:
            check_count("quadrature node count", self.nodes, 64)
            if self.nodes > MAX_NODES:
                raise ParameterError(
                    f"{self.nodes} quadrature nodes per axis exceeds the limit {MAX_NODES}"
                )


def finer_nodes(nodes: int) -> int:
    """The count check_refinement checks nodes against: 1.25 nodes rounded
    up to a multiple of 8.

    Both the package's rules are sums at closed-form nodes: the oracle's
    trapezoidal steps, and the aperture's midpoint steps in theta with
    Chebyshev points on each chord. Their error on their analytic
    integrands falls at least geometrically once nodes passes their
    bandwidth (optics.aperture_nodes, oracle_nodes), so a step of a quarter separates
    a converged count from an unconverged one, whether the count was sized
    to its integrand or given.
    """
    return -(-5 * nodes // 32) * 8


def check_refinement(coarse, fine, nodes: int, check: bool, what: str,
                     floor: float = 1e-300) -> float:
    """Relative change max|fine - coarse| / max(max|fine|, floor) of the
    values at nodes (coarse) against those at finer_nodes(nodes) (fine).

    floor is the least scale the change is measured against: a normalized
    output passes the value it is normalized to, so that values far below
    it are not held to a relative tolerance of their own. No values change
    by 0. A change above DOUBLING_TOL raises ConvergenceError when check is
    set, else warns ApertureSamplingWarning at the caller's line; either way
    the count is kept and the change returned. what names the result in the
    message.
    """
    coarse, fine = np.ravel(coarse), np.ravel(fine)
    scale = max(float(np.max(np.abs(fine), initial=0.0)), floor)
    change = float(np.max(np.abs(fine - coarse), initial=0.0)) / scale
    if change > DOUBLING_TOL:
        message = (f"refining {nodes} -> {finer_nodes(nodes)} nodes changed {what} by "
                   f"{change:.3e} relative (tol {DOUBLING_TOL:g})")
        if check:
            raise ConvergenceError(message)
        warnings.warn(message, ApertureSamplingWarning, stacklevel=outside_stacklevel())
    return change


def envelope_coefficients(params: SourceParams) -> Tuple[float, float]:
    """Return (c_env, c_chirp) of the closed-form amplitude."""
    k, sig, s1, s2 = params.k, params.sigma, params.s1, params.s2
    D = 4 * s1**2 * s2**2 + k**2 * sig**4 * (s1 + s2) ** 2
    c_env = k**2 * sig**2 * s1**2 * s2**2 / D
    c_chirp = k**3 * sig**4 * s1 * s2 * (s1 + s2) / (2 * D)
    return c_env, c_chirp


def _warn_paraxial(params: SourceParams, *coords) -> None:
    limit = PARAXIAL_FRACTION * min(params.s1, params.s2)
    biggest = max((float(np.max(np.abs(c))) if np.size(c) else 0.0) for c in coords)
    if biggest > limit:
        warnings.warn(
            f"transverse coordinate {biggest:g} m exceeds the paraxial budget "
            f"{limit:g} m",
            ParaxialWarning,
            stacklevel=3,
        )


def _broadcast_points(x1, y1, x2, y2) -> Tuple[np.ndarray, ...]:
    """The four coordinate arrays of a set of points, as floats broadcast together."""
    return np.broadcast_arrays(*(np.asarray(a, float) for a in (x1, y1, x2, y2)))


def _axis_coefficients(params: SourceParams, s_var: float, s_fixed: float, fixed):
    """(P, Q, R) of one axis factor of the closed form, exp(-P t^2 + Q t + R).

    t is the coordinate in the plane at distance s_var, and the other
    plane's coordinate, at s_fixed, is fixed. With c = c_env + i c_chirp,

        P = c / s_var^2 - (i k / 2) / s_var
        Q = -2 c fixed / (s_var s_fixed)
        R = -c fixed^2 / s_fixed^2 + (i k / 2) fixed^2 / s_fixed

    and Re P = c_env / s_var^2 > 0. P is a complex scalar; Q and R have the
    shape of fixed.
    """
    c = complex(*envelope_coefficients(params))
    k = params.k
    fixed = np.asarray(fixed, float)
    P = c / s_var**2 - 0.5j * k / s_var
    Q = (-2 * c / (s_var * s_fixed)) * fixed
    R = (-c / s_fixed**2 + 0.5j * k / s_fixed) * (fixed * fixed)
    return P, Q, R


def axis_amplitude(params: SourceParams, a1, a2) -> np.ndarray:
    """One-axis factor of the separable closed form.

    closed_form_amplitude(x1, y1, x2, y2) equals
    axis_amplitude(x1, x2) * axis_amplitude(y1, y2); map evaluators exploit
    this to factorize plane integrals. a1 and a2 broadcast together.
    """
    P, Q, R = _axis_coefficients(params, params.s1, params.s2, a2)
    a1 = np.asarray(a1, float)
    return np.exp(-P * (a1 * a1) + Q * a1 + R)


def closed_form_amplitude(params: SourceParams, x1, y1, x2, y2) -> np.ndarray:
    """Normalized two-photon amplitude Phi(x1, y1; x2, y2).

    Accepts scalars or broadcastable arrays; returns a complex array of the
    broadcast shape (0-d for scalar input). Phi(0,0;0,0) = 1 exactly.
    """
    x1, y1, x2, y2 = _broadcast_points(x1, y1, x2, y2)
    _warn_paraxial(params, x1, y1, x2, y2)
    value = axis_amplitude(params, x1, x2) * axis_amplitude(params, y1, y2)
    if not np.all(np.isfinite(value)):
        raise NumericError("closed-form amplitude produced non-finite values")
    return value


# terms of Weideman's rational expansion of the Faddeeva function
FADDEEVA_TERMS = 40

# relative accuracy of _faddeeva: within 1.4e-15 of 40-digit values over
# the upper half plane
FADDEEVA_ACCURACY = 1e-14

# rounding of a computed phase, in ulps per radian: exp(i phi) is off by
# about 2.3 eps * |phi| for the edge phases of axis_opening_mean
PHASE_ROUNDING_ULPS = 4.0


@lru_cache(maxsize=1)
def _faddeeva_coefficients() -> Tuple[float, np.ndarray]:
    """(L, a) of Weideman's expansion: a holds its polynomial coefficients,
    highest degree first, from one FFT (SIAM J. Numer. Anal. 31, 1497 (1994))."""
    n = FADDEEVA_TERMS
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.pi * np.arange(1 - 2 * n, 2 * n) / (4 * n))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real[n:0:-1] / (4 * n)
    a.flags.writeable = False
    return scale, a


def _faddeeva(z) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's rational expansion in Z = (L + iz) / (L - iz):
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), p of degree
    FADDEEVA_TERMS - 1.
    """
    scale, a = _faddeeva_coefficients()
    iz = 1j * np.asarray(z, complex)
    denom = scale - iz
    return (2.0 * np.polyval(a, (scale + iz) / denom) / denom + 1.0 / math.sqrt(math.pi)) / denom


def axis_opening_mean(params: SourceParams, lo, hi, a2) -> Tuple[np.ndarray, np.ndarray]:
    """Mean of axis_amplitude(t, a2) over openings t in [lo, hi], in closed form.

    Along t the factor is f(t) = exp(-P t^2 + Q t + R), with the coefficients
    of _axis_coefficients (t at s1, a2 fixed at s2). Its integral over [lo, hi] is
    sqrt(pi)/(2 sqrt(P)) G [erf(z_hi) - erf(z_lo)], with G = exp(Q^2/4P + R)
    and z = sqrt(P) (t - Q/2P) (Abramowitz & Stegun 7.4.32). Each G erf(z)
    is taken as s G - s f(t) w(i s z), s the sign of Re z, so w is evaluated
    in the upper half plane only. Re z rises with t, so the G terms cancel
    unless Re z changes sign inside the opening, and only there is 2G (which
    may overflow elsewhere) computed. lo, hi and a2 broadcast together.

    Returns (mean, bound): bound is the sum of the magnitudes of the terms,
    under the same prefactor, times their relative accuracy,
    FADDEEVA_ACCURACY plus PHASE_ROUNDING_ULPS ulps per radian of the
    largest phase k/2 (t^2/s1 + a2^2/s2) over the opening.
    """
    k, s1, s2 = params.k, params.s1, params.s2
    a2 = np.asarray(a2, float)
    p, q, r = _axis_coefficients(params, s1, s2, a2)
    root = np.sqrt(p)

    def edge(t):
        z = root * (t - q / (2.0 * p))
        s = np.where(z.real >= 0.0, 1.0, -1.0)
        return s, s * np.exp(-p * (t * t) + q * t + r) * _faddeeva(1j * s * z)

    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    s_lo, edge_lo = edge(lo)
    s_hi, edge_hi = edge(hi)
    crossing = s_hi > s_lo
    exponent = q * q / (4.0 * p) + r
    two_g = 2.0 * crossing * np.exp(np.where(crossing, exponent, 0.0))
    prefactor = math.sqrt(math.pi) / (2.0 * root * (hi - lo))
    phase = 0.5 * k * (np.maximum(lo * lo, hi * hi) / s1 + a2 * a2 / s2)
    accuracy = FADDEEVA_ACCURACY + PHASE_ROUNDING_ULPS * np.finfo(float).eps * phase
    size = np.abs(two_g) + np.abs(edge_hi) + np.abs(edge_lo)
    return prefactor * (two_g - edge_hi + edge_lo), np.abs(prefactor) * accuracy * size


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


# most steps per axis the source oracle sizes: it admits sigma = 40 mm on the
# amplitude subcommand's default line (146,933, checked at 183,672)
ORACLE_MAX_NODES = 1 << 19

# Gaussian widths at which the oracle cuts both tails of its integrand: the
# window +-D sigma in t, and the spectrum D widths past the phase rate of a
# point, each at exp(-D^2) = 4.5e-19
ORACLE_TAIL_CUT = 6.5

# (shifts x nodes) elements per block of the oracle's cosine kernel: 8 MB
_ORACLE_BLOCK_ELEMENTS = 1 << 20


def oracle_nodes(params: SourceParams, x1, y1, x2, y2) -> int:
    """Steps n per axis of the source oracle's trapezoidal rule (its n + 1
    nodes t_j = j T / n) at these points, in closed form.

    The integrand of _axis_integral is e(t) cos(k t u), with
    e(t) = exp(-(1/sigma^2 - i c) t^2), c = k/2 (1/s1 + 1/s2) and u the
    shift a1/s1 + a2/s2 of a point's axis. The spectrum of e falls as
    exp(-(omega/W)^2), W = 2 sqrt(1 + c^2 sigma^4) / sigma, and the cosine
    moves it to +-k u. By Poisson summation, a step 2 pi / Omega aliases
    the spectrum at Omega - k u onto the value at k u (Trefethen & Weideman,
    SIAM Rev. 56, 385 (2014)), so with D = ORACLE_TAIL_CUT,
    Omega = k u + sqrt((k u)^2 + (D W)^2) keeps that alias exp(-D^2) below
    the point's own value. Over the window T = D sigma the count is
    n = ceil(T Omega / 2 pi), with u the largest |u| over both axes of every
    point. Points that are not finite, or a count above ORACLE_MAX_NODES
    (or not finite), raise ParameterError before the count is rounded.
    """
    a1, b1, a2, b2 = (a.ravel() for a in _broadcast_points(x1, y1, x2, y2))
    s1, s2, k, sigma = params.s1, params.s2, params.k, params.sigma
    u = float(np.max(np.abs(np.concatenate([a1 / s1 + a2 / s2, b1 / s1 + b2 / s2, [0.0]]))))
    if not math.isfinite(u):
        raise ParameterError("the oracle's points must be finite")
    c = 0.5 * k * (1 / s1 + 1 / s2)
    width = 2.0 * math.sqrt(1.0 + (c * sigma * sigma) ** 2) / sigma
    omega = k * u + math.hypot(k * u, ORACLE_TAIL_CUT * width)
    nodes = ORACLE_TAIL_CUT * sigma * omega / (2 * math.pi)
    if not nodes <= ORACLE_MAX_NODES:
        raise ParameterError(f"the oracle needs {nodes:.3g} nodes per axis here (bandwidth "
                             f"{omega:.3g} rad/m), above its limit {ORACLE_MAX_NODES}")
    return math.ceil(nodes)


def _axis_integral(params: SourceParams, u: np.ndarray, nodes: int) -> np.ndarray:
    """Single-axis source integral without its per-point phase, at shifts u.

    The oracle's integrand along one axis,
    exp(-t^2/sigma^2 + i k/2 ((a1-t)^2/s1 + (a2-t)^2/s2)), expands into
    exp(i k/2 (a1^2/s1 + a2^2/s2)) * e(t) * exp(-i k t u) with
    e(t) = exp(-t^2/sigma^2 + i k/2 (1/s1 + 1/s2) t^2) and u = a1/s1 + a2/s2.
    e is even, so over t in +-T, T = ORACLE_TAIL_CUT sigma, the integral is
    that of 2 e(t) cos(k t u) over [0, T]. This returns its trapezoidal sum
    on the nodes t_j = j T / nodes, j = 0 .. nodes, for a flat array u: one
    real cosine kernel times the real and imaginary parts of the weighted
    e. The kernel runs in blocks of nodes of about _ORACLE_BLOCK_ELEMENTS
    (shifts x nodes), summed in node order.
    """
    half_width = ORACLE_TAIL_CUT * params.sigma
    t = np.linspace(0.0, half_width, nodes + 1)
    g = (2.0 * half_width / nodes) * np.exp(
        -(t * t) / params.sigma**2 + 0.5j * params.k * (1 / params.s1 + 1 / params.s2) * (t * t)
    )
    g[[0, -1]] *= 0.5
    g = g.view(float).reshape(-1, 2)
    step = max(1, _ORACLE_BLOCK_ELEMENTS // u.size)
    sums = np.zeros((u.size, 2))
    for j in range(0, t.size, step):
        # one block alive at a time: the cosine in place, the block released
        block = np.multiply.outer(u, params.k * t[j:j + step])
        sums += np.cos(block, out=block) @ g[j:j + step]
        del block
    return sums.view(complex)[:, 0]


def quadrature_oracle_amplitude(
    params: SourceParams, x1, y1, x2, y2, quad: QuadSettings = QuadSettings()
) -> np.ndarray:
    """Two-photon amplitude by direct quadrature of the source integral.

    Independent of the closed form: the source integral factorizes into an
    x and a y integral of exp(-t^2/sigma^2) * exp(i k/2 ((a1-t)^2/s1 +
    (a2-t)^2/s2)), each taken by the trapezoidal rule over
    t in +-ORACLE_TAIL_CUT * sigma with the step oracle_nodes sizes to the
    integrand at these points. The oracle takes no node count: a given
    quad.nodes raises ParameterError. Expanding the square splits off the
    phase exp(i k/2 (a1^2/s1 + a2^2/s2)) and leaves a sum that depends on
    the point only through u = a1/s1 + a2/s2 (_axis_integral). Those sums
    are taken once per count over the distinct u of the x axis, the y axis
    and the origin, then scattered back to the points. The result is
    Ix * Iy / I0^2, normalized so that oracle(0,0;0,0) = 1 with phases
    comparable to closed_form_amplitude. check_refinement compares every
    value with its value at finer_nodes of the count, and a miss warns, or
    raises under quad.check; the values returned are those at the first
    count.
    """
    nodes = oracle_nodes(params, x1, y1, x2, y2)
    if quad.nodes is not None:
        raise ParameterError(f"the oracle sizes its own rule; it takes no node count "
                             f"(got {quad.nodes})")
    k, s1, s2 = params.k, params.s1, params.s2
    pts = _broadcast_points(x1, y1, x2, y2)
    a1, b1, a2, b2 = (a.ravel() for a in pts)
    shifts, inverse = np.unique(np.concatenate([a1 / s1 + a2 / s2, b1 / s1 + b2 / s2, [0.0]]),
                                return_inverse=True)
    phase = np.exp(0.5j * k * ((a1 * a1 + b1 * b1) / s1 + (a2 * a2 + b2 * b2) / s2))

    def evaluate(n: int) -> np.ndarray:
        """Flat values at the points with n nodes."""
        sums = _axis_integral(params, shifts, n)[inverse]
        ix, iy, i0 = sums[:a1.size], sums[a1.size:-1], sums[-1]
        return phase * ix * iy / i0**2

    value = evaluate(nodes)
    check_refinement(value, evaluate(finer_nodes(nodes)), nodes, quad.check, "the oracle")
    value = value.reshape(pts[0].shape)
    if not np.all(np.isfinite(value)):
        raise NumericError("quadrature oracle produced non-finite values")
    return value
