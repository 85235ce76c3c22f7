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
Gauss-Legendre quadrature of the underlying source integral, normalized the
same way, serves as the correctness oracle for the closed form.

Phi is a product of one factor per axis, a complex Gaussian
exp(-P t^2 + Q t + R) in either plane's coordinate t, and
``_axis_coefficients`` alone forms (P, Q, R). Over a finite slit opening its
mean is an erf difference (``axis_opening_mean``), taken through the Faddeeva
function w(z) of Weideman's rational expansion (``_faddeeva``); ``optics``
adds the lens's terms to (P, Q, R) for its lens-plane kernel.

The Gauss-Legendre rule itself (``_leggauss``) lives here too, and so does
``converged_nodes``: the one function that checks the node count of every
quadrature in the package (the oracle and the aperture). It compares every
value its caller evaluates at n nodes and at the finer count
``finer_nodes`` names (2n for an explicit count, ~1.25n for the aperture's
own choice) against DOUBLING_TOL, and hands back the values at the count it
accepted, so no caller evaluates that count again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
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


# largest explicit node count per axis, and the most the aperture rule's
# automatic search climbs to. The aperture rule's weights are an n x n
# matrix built in O(n^3), so the doubled check of an explicit MAX_NODES, at
# 4096, holds 128 MB of weights (the search checks MAX_NODES at 2560); larger
# counts are refused before any work.
MAX_NODES = 2048


# half-width of the oracle's source integral in units of sigma: the
# Gaussian envelope exp(-t^2/sigma^2) is exp(-16) = 1.1e-7 at its ends
ORACLE_HALF_WIDTH_SIGMAS = 4.0

# relative change at which node doubling counts a quadrature as converged
DOUBLING_TOL = 1e-8


@dataclass(frozen=True)
class QuadSettings:
    """Gauss-Legendre quadrature controls.

    nodes: nodes per axis, 64 to MAX_NODES; None lets each consumer pick its
      default (2048 for the source oracle; for the aperture quadrature a
      count sized by the lens-plane bandwidth, optics.aperture_nodes).
    check: when True, a checked change above DOUBLING_TOL raises
      ConvergenceError (the oracle is checked only then; the other
      quadratures warn), and optics.lens_plane_nodes holds the closed form
      to DOUBLING_TOL.
    """

    nodes: Optional[int] = None
    check: bool = False

    def __post_init__(self):
        if self.nodes is not None and not isinstance(self.nodes, (int, np.integer)):
            raise ParameterError(f"quadrature node count must be an integer, got {self.nodes!r}")
        if self.nodes is not None and self.nodes < 64:
            raise ParameterError("quadrature needs at least 64 nodes per axis")
        if self.nodes is not None and self.nodes > MAX_NODES:
            raise ParameterError(
                f"{self.nodes} quadrature nodes per axis exceeds the limit {MAX_NODES}"
            )


ORACLE_DEFAULT_NODES = 2048


def oracle_nodes(quad: QuadSettings) -> int:
    """Nodes per axis of the source oracle: quad.nodes, else ORACLE_DEFAULT_NODES."""
    return quad.nodes if quad.nodes is not None else ORACLE_DEFAULT_NODES


# Newton-type passes allowed from Tricomi's initial guesses; two (the second
# only verifying) suffice from n = 512 to 8192 and three below, so hitting
# the cap means the iteration has gone wrong
NEWTON_MAX_STEPS = 10


def _legendre_slope(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) for |x| < 1, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=32)
def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton-type iteration on P_n (Swarztrauber, SIAM J. Sci. Comput. 24, 945
    (2002); Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)),
    vectorized over the nodes of the half-interval x >= 0 and started from
    Tricomi's guesses
    x_k = (1 - 1/(8 n^2) + 1/(8 n^3)) cos(pi (4k - 1) / (4n + 2)). Each pass
    takes P_n and P_n' from the three-term recurrence, O(n^2) work against
    the O(n^3) eigenvalue solve of numpy's leggauss, and the next two
    derivatives from Legendre's equation,

        (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n,
        (1 - x^2) P_n''' = 4x P_n'' - (n(n+1) - 2) P_n'.

    With the Newton step h = -P_n/P_n', a2 = P_n''/(2 P_n') and
    a3 = P_n'''/(6 P_n'), a pass steps by h - a2 h^2 + (2 a2^2 - a3) h^3: the
    root of the cubic Taylor polynomial of P_n about x, to third order in h.
    From Tricomi's guesses one such step converges for n >= 512, and the
    next pass, whose step is at most 1e-15, only verifies: two recurrence
    passes in all. The weights 2 / ((1 - x^2) P_n'(x)^2) come from the
    verifying pass, with P_n' carried to the stepped node as P_n' + P_n'' h.
    1 - x^2 is computed as (1 - x)(1 + x) throughout. The negative half is
    the mirror image, so the rule is exactly symmetric. The arrays are
    cached, and read-only.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    order = n * (n + 1.0)
    for _ in range(NEWTON_MAX_STEPS):
        p, dp = _legendre_slope(n, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        d2p = (2.0 * x * dp - order * p) / one_minus_x2
        d3p = (4.0 * x * d2p - (order - 2.0) * dp) / one_minus_x2
        a2, a3 = d2p / (2.0 * dp), d3p / (6.0 * dp)
        h = -p / dp
        step = h * (1.0 + h * ((2.0 * a2 * a2 - a3) * h - a2))
        x += step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise NumericError(
            f"Gauss-Legendre nodes for n = {n} did not converge in "
            f"{NEWTON_MAX_STEPS} Newton steps"
        )
    odd = n % 2
    if odd:
        x[-1] = 0.0
    dp += d2p * step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate([-x, x[::-1][odd:]])
    weights = np.concatenate([w, w[::-1][odd:]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def doubling_change(coarse, fine, floor: float = 1e-300) -> float:
    """Relative change max|fine - coarse| / max(max|fine|, floor) of checked values.

    floor is the least scale the change is measured against: a normalized
    output passes the value it is normalized to, so that values far below
    it are not held to a relative tolerance of their own. No values change
    by 0.
    """
    coarse, fine = np.ravel(coarse), np.ravel(fine)
    if not fine.size:
        return 0.0
    scale = max(float(np.max(np.abs(fine))), floor)
    return float(np.max(np.abs(fine - coarse))) / scale


def finer_nodes(nodes: int, quad: QuadSettings) -> int:
    """The count converged_nodes checks nodes against.

    Twice an explicit quad.nodes. Otherwise 1.25 nodes rounded up to a
    multiple of 8, at most MAX_NODES while nodes is below it: a count sized
    to its integrand (optics.aperture_nodes) is already past the point where
    Gauss-Legendre error falls super-exponentially, so a step of a quarter
    shows whether it has converged at a fraction of doubling's cost.
    """
    if quad.nodes is not None:
        return 2 * nodes
    finer = -(-5 * nodes // 32) * 8
    return finer if nodes >= MAX_NODES else min(finer, MAX_NODES)


def converged_nodes(evaluate, nodes: int, quad: QuadSettings, what: str,
                    floor: float = 1e-300) -> Tuple[int, float, np.ndarray]:
    """Node count accepted by a check against a finer count: (nodes, measured
    change, values).

    evaluate(n) returns the values to check with n nodes per axis, and
    values is what it returned at the accepted count. nodes is compared
    once with finer_nodes(nodes, quad), by doubling_change against floor.
    An explicit quad.nodes is kept whatever the change. Without it a change
    above DOUBLING_TOL moves to the finer count, which is then checked the
    same way, until one passes or MAX_NODES is checked. A change still above
    DOUBLING_TOL raises ConvergenceError under quad.check, else warns
    ApertureSamplingWarning at the caller's line. what names the result in
    the message.
    """
    finer = finer_nodes(nodes, quad)
    coarse, fine = evaluate(nodes), evaluate(finer)
    change = doubling_change(coarse, fine, floor)
    while quad.nodes is None and nodes < MAX_NODES and change > DOUBLING_TOL:
        nodes, coarse = finer, fine
        finer = finer_nodes(nodes, quad)
        fine = evaluate(finer)
        change = doubling_change(coarse, fine, floor)
    if change > DOUBLING_TOL:
        step = "refining" if quad.nodes is None else "doubling"
        message = (f"{step} {nodes} -> {finer} nodes changed {what} by "
                   f"{change:.3e} relative (tol {DOUBLING_TOL:g})")
        if quad.check:
            raise ConvergenceError(message)
        warnings.warn(message, ApertureSamplingWarning, stacklevel=outside_stacklevel())
    return nodes, change, coarse


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


def _axis_integral(params: SourceParams, u: np.ndarray, nodes: int,
                   half_width: float) -> np.ndarray:
    """Single-axis source integral without its per-point phase, at shifts u.

    The oracle's integrand along one axis,
    exp(-t^2/sigma^2 + i k/2 ((a1-t)^2/s1 + (a2-t)^2/s2)) over
    t in [-half_width, half_width], expands into
    exp(i k/2 (a1^2/s1 + a2^2/s2)) * e(t) * exp(-i k t u) with
    e(t) = exp(-t^2/sigma^2 + i k/2 (1/s1 + 1/s2) t^2) and u = a1/s1 + a2/s2.
    This returns sum_t w_t e(t) exp(-i k t u) over the Gauss-Legendre nodes
    for a flat array u. The nodes are symmetric and g(t) = w_t e(t) is even,
    so the sum is sum over t >= 0 of 2 g(t) cos(k t u), the middle node of
    an odd count taken once: one real cosine kernel times the real and
    imaginary parts of g.
    """
    t, w = _leggauss(nodes)
    t, w = half_width * t[nodes // 2:], half_width * w[nodes // 2:]  # t >= 0
    g = w * np.exp(-(t * t) / params.sigma**2
                   + 0.5j * params.k * (1 / params.s1 + 1 / params.s2) * (t * t))
    g[nodes % 2:] *= 2.0
    kernel = np.cos(np.multiply.outer(u, params.k * t))
    return (kernel @ g.view(float).reshape(-1, 2)).view(complex)[:, 0]


def quadrature_oracle_amplitude(
    params: SourceParams, x1, y1, x2, y2, quad: QuadSettings = QuadSettings()
) -> np.ndarray:
    """Two-photon amplitude by direct quadrature of the source integral.

    Independent of the closed form: the source integral factorizes into an
    x and a y integral of exp(-t^2/sigma^2) * exp(i k/2 ((a1-t)^2/s1 +
    (a2-t)^2/s2)) over t in +-ORACLE_HALF_WIDTH_SIGMAS * sigma, each taken by
    Gauss-Legendre quadrature with oracle_nodes(quad) nodes. Expanding the
    square splits off the phase exp(i k/2 (a1^2/s1 + a2^2/s2)) and leaves a
    sum that depends on the point only through u = a1/s1 + a2/s2
    (_axis_integral). Those sums are taken once per call over the distinct
    u of the x axis, the y axis and the origin, then scattered back to the
    points. The result is Ix * Iy / I0^2, normalized so that
    oracle(0,0;0,0) = 1 with phases comparable to closed_form_amplitude.
    Under quad.check, converged_nodes compares every value against twice
    the nodes.
    """
    nodes = oracle_nodes(quad)
    half_width = ORACLE_HALF_WIDTH_SIGMAS * params.sigma
    k, s1, s2 = params.k, params.s1, params.s2
    pts = _broadcast_points(x1, y1, x2, y2)
    a1, b1, a2, b2 = (a.ravel() for a in pts)
    shifts, inverse = np.unique(
        np.concatenate([a1 / s1 + a2 / s2, b1 / s1 + b2 / s2, [0.0]]),
        return_inverse=True,
    )
    phase = np.exp(0.5j * k * ((a1 * a1 + b1 * b1) / s1 + (a2 * a2 + b2 * b2) / s2))

    def evaluate(n: int) -> np.ndarray:
        """Flat values at the points with n nodes."""
        sums = _axis_integral(params, shifts, n, half_width)[inverse]
        ix, iy, i0 = sums[:a1.size], sums[a1.size:-1], sums[-1]
        return phase * ix * iy / i0**2

    if quad.check:
        _, _, value = converged_nodes(evaluate, nodes, replace(quad, nodes=nodes), "the oracle")
    else:
        value = evaluate(nodes)
    value = value.reshape(pts[0].shape)
    if not np.all(np.isfinite(value)):
        raise NumericError("quadrature oracle produced non-finite values")
    return value

