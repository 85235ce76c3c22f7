"""Thin-lens imaging of photon 2: lens phase, Fresnel step, imaging amplitude.

The imaging amplitude propagates the two-photon amplitude from the lens plane
(distance s2 from the source) through the lens phase and aperture, then by a
Fresnel step over the image distance v:

    Phi_I(x1, y1; x2, y2) = integral over the aperture of
        Phi(x1, y1; xi, eta) * a_p2(xi, eta)
        * exp(-i k (xi^2+eta^2) / 2f) * exp(+i k ((x2-xi)^2+(y2-eta)^2) / 2v)

Results are normalized by the on-axis value Phi_I(0,0;0,0) so interior peaks
are O(1). The lens-plane integral is evaluated on one of two paths:

- closed form. Per axis the integrand is a complex Gaussian
  exp(-A xi^2 + B xi + C), the source's axis factor from biphoton plus the
  lens phase and the whole Fresnel step (``lens_axis_kernel``), so over the
  whole plane the integral is exact and Phi_I = Kx * Ky; an image map is two
  small matrix products, Ky^T W Kx. It leaves out the aperture, which
  changes the normalized amplitude by at most the clip bound
  b(r_c) + b(0), b(r) = (|A|/Re A) exp(-Re A (rho - r)^2), which
  ``_lens_plane`` alone forms (``lens_plane_nodes`` derives it). The map
  kernels depend on the geometry only, never on the pattern or the
  polarizer angles: each is built once, its entries below KERNEL_FLOOR
  zeroed, and cached (``_phased_map_kernel``), so a sweep over one geometry
  is two matmuls a map.
- quadrature over the aperture disc (``_disc_rule``), every node and
  weight in closed form: outer nodes xi = rho sin(theta), theta the
  midpoints of equal steps, and one inner set, the Chebyshev points, whose
  weights W integrate their interpolant exactly over each outer node's
  chord. The substitution removes the square-root ends of the chords and
  leaves a smooth periodic integrand in theta, so the rule converges
  spectrally (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)). By the x/y
  separability of Phi, points and image maps contract per-axis factors
  through the one matrix W, and divide by the exact on-axis value
  pi (1 - exp(-A rho^2)) / A, the integral of exp(-A r^2) over the
  aperture (``_on_axis_raw``).

Each public evaluator holds its whole lens plane: ``imaging_amplitude``
for points, ``pattern_image_field`` for the image maps, which returns the
map's field with a record of its path, count and error. Both start from
one set-up, ``_lens_plane`` (the map through ``lens_plane_nodes``, on the
axis ends of its pattern and camera centres). It first rejects object
points that reach min(s1, s2) from the axis, then forms the lens-plane
terms of each axis once, and picks the path from them: the closed form
when no node count is given and the clip bound is at most the tolerance
(biphoton.DOUBLING_TOL under quad.check, else APERTURE_CLIP_TOL);
quadrature otherwise. On the quadrature path the first node count comes
from the integrand itself (``aperture_nodes``): its largest lens-plane
phase rate over the aperture, the bandwidth omega, which ``_lens_plane``
forms over the object and image points it is given and refuses where it
is not finite, and the curvature of its Gaussian envelope. That count,
or an explicit one, is evaluated once, and the package's one node check,
``biphoton.check_refinement``, compares every point amplitude (for image
maps: a strided sub-camera of at most 16 x 16 pixels) with one finer
count, ~1.25 times as many nodes; a change above DOUBLING_TOL warns, or
raises under quad.check, and the first count is kept either way. The
quadrature path is the independent oracle the closed form is tested
against where nothing clips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .biphoton import (
    DOUBLING_TOL,
    MAX_NODES,
    QuadSettings,
    SourceParams,
    _axis_coefficients,
    _broadcast_points,
    check_refinement,
    finer_nodes,
)
from .errors import NumericError, ParameterError

# first zero of the Bessel function J1, fixing the Airy radius 3.83 * v / (k rho)
AIRY_FIRST_ZERO = 3.8317059702075125

# outer-node block size of the quadrature map contraction, bounding its
# (block x nodes) arrays; blocks are summed in a fixed order
_NODE_BLOCK = 512

# (points x nodes) elements per block of the quadrature point contraction:
# 16 MB per complex array
_POINT_BLOCK_ELEMENTS = 1 << 20

# points per weight matmul; padded to whole chunks, every matmul has one shape,
# so a point's value does not depend on the points evaluated with it
_POINT_CHUNK = 16

# clip bound (lens_plane_nodes) at or below which the closed form replaces
# the aperture quadrature when quad.check is off. In the default geometry
# (sigma = 3 mm, s1 = 1.33 m, s2 = 1.5 m, f = 1.5 m, 25 mm aperture) it
# admits object points out to a radius of ~5 mm; the default 4 mm pattern
# gives 8.6e-6.
APERTURE_CLIP_TOL = 1e-4

# |K| below which the closed-form map zeroes a lens_axis_kernel entry. The
# kernels are Gaussian bands whose tails reach 1e-250 and below in the
# default geometry; products of such tails are subnormal, which makes the
# map's complex matmuls ~5x slower (Dooley & Kale, "Quantifying the
# interference caused by subnormal floating-point values", 2006).
# Speed: a product of two kept entries (>= 1e-100) and a weight down to
# 1e-29 is >= 1e-229, far above the subnormal range below 2.2e-308; any
# floor above ~1e-140 would do.
# Accuracy: K(0, 0) = 1 and |K| <= 1 up to 2e-4, so a point amplitude
# Kx Ky changes by at most 2 * KERNEL_FLOOR in on-axis units, 90 orders of
# magnitude below the clip bound.
KERNEL_FLOOR = 1e-100


@dataclass(frozen=True)
class LensSystem:
    """Thin imaging lens with a circular aperture.

    f: focal length, meters.
    u: object distance, meters (object plane to lens); in the ghost-imaging
       geometry u = s1 + s2, the object sitting s1 beyond the source.
    aperture_radius: circular aperture radius in meters.

    The image distance v is derived from the imaging condition
    1/u + 1/v = 1/f, never given.
    """

    f: float
    u: float
    aperture_radius: float = 25e-3

    def __post_init__(self):
        for name in ("f", "u"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ParameterError(f"{name} must be finite and > 0, got {val!r}")
        if self.u <= self.f:
            raise ParameterError("real imaging needs object distance u > f")
        if not np.isfinite(self.aperture_radius) or self.aperture_radius <= 0:
            raise ParameterError("aperture radius must be finite and > 0")

    @property
    def v(self) -> float:
        """Image distance, meters, from 1/u + 1/v = 1/f."""
        return 1.0 / (1.0 / self.f - 1.0 / self.u)

    @property
    def magnification(self) -> float:
        return self.v / self.u


def ghost_magnification(params: SourceParams, lens: LensSystem) -> float:
    """Image scale m = v / (s1 + s2) of the ghost-imaging geometry.

    The object sits at distance s1 on the far side of the source, so the
    effective object distance is s1 + s2 and the lens must be placed
    accordingly (u = s1 + s2).
    """
    u_expected = params.s1 + params.s2
    if abs(lens.u - u_expected) > 1e-9:
        raise ParameterError(
            f"lens object distance u = {lens.u:g} m does not match "
            f"s1 + s2 = {u_expected:g} m"
        )
    return lens.v / u_expected


def aperture_nodes(quad: QuadSettings, clipped: bool, omega: float, envelope: float) -> int:
    """First per-axis node count of the lens-plane integral: quad.nodes; else
    0, the closed form, unless the aperture clipped beyond the limit
    (lens_plane_nodes); else n*, for check_refinement to check.

    Per axis the integrand is exp(-a s^2 + b s) on s = xi / rho in [-1, 1],
    with a = A rho^2 and b = B rho (_lens_plane_coefficients). omega is
    the largest rate of its phase over the aperture (_lens_plane),
    read only where n* is formed; envelope is Re a, the curvature of its
    Gaussian envelope. The disc rule (_disc_rule) interpolates each chord
    at n Chebyshev points and sums n midpoint steps in theta, whose error
    on an analytic integrand falls super-exponentially once n passes its
    bandwidth: the Chebyshev coefficients of exp(i omega s), and the
    Fourier coefficients of exp(i omega sin(theta)), are the Bessel values
    J_k(omega), which fall so once k passes omega plus a transition of
    width ~omega^(1/3) (Trefethen, SIAM Rev. 50, 67 (2008); Approximation
    Theory and Approximation Practice, ch. 8), and exp(-a s^2), whose
    Chebyshev coefficients fall as exp(-k^2 / 4a), needs
    ~sqrt(a ln(1/tol)) more. So

        n* = omega + 4.5 omega^(1/3) + 4 sqrt(Re a),

    rounded up to a multiple of 8. The constants are the least that put n*,
    before rounding, where the rule stays within DOUBLING_TOL / 100 of its
    own 2048 nodes on every clipped PSF line and map of tests/test_optics.py
    (omega 5-500 rad, Re a 0.003-134); the rounded count meets those tests'
    bounds. A sized count above MAX_NODES raises ParameterError, and so
    does a given one below the envelope's 4 sqrt(Re a), whose nodes cannot
    see the envelope; given counts start at 64 (QuadSettings), so only an
    aperture far wider than the envelope meets that.
    """
    need = 4.0 * math.sqrt(envelope)
    if quad.nodes is not None:
        if quad.nodes < need:
            raise ParameterError(f"{quad.nodes} nodes per axis cannot resolve the lens-plane "
                                 f"envelope here, which needs at least {need:.3g}")
        return quad.nodes
    if not clipped:
        return 0
    n = omega + 4.5 * omega ** (1 / 3) + need
    if not n <= MAX_NODES:
        raise ParameterError(f"the aperture quadrature needs {n:.3g} nodes per axis here "
                             f"(bandwidth {omega:.3g} rad), above its limit {MAX_NODES}")
    return 8 * max(1, math.ceil(n / 8))


# ---------------------------------------------------------------------------
# closed-form lens-plane kernel and the path choice
# ---------------------------------------------------------------------------


def _lens_plane_coefficients(params: SourceParams, lens: LensSystem, a1, a2):
    """(A, B, C) of the per-axis lens-plane exponent -A xi^2 + B xi + C.

    A is a complex scalar; B and C broadcast a1 (object) against a2 (image).
    The formulas are in lens_axis_kernel.
    """
    P, Q, R = _axis_coefficients(params, params.s2, params.s1, a1)
    a2 = np.asarray(a2, float)
    A = P - 0.5j * params.k * (1 / lens.v - 1 / lens.f)
    B = Q - (1j * params.k / lens.v) * a2
    C = R + (0.5j * params.k / lens.v) * (a2 * a2)
    return A, B, C


def lens_axis_kernel(params: SourceParams, lens: LensSystem, a1, a2) -> np.ndarray:
    """Closed-form lens-plane integral along one axis, normalized to K(0, 0) = 1.

    Along one lens-plane axis xi the integrand of Phi_I (source factor, lens
    phase and Fresnel step) is exp(-A xi^2 + B xi + C). (P, Q, R) of the
    source factor, in xi at s2 with a1 fixed at s1, come from
    biphoton._axis_coefficients; the lens and the Fresnel step over v add

        A = P - (i k / 2) (1/v - 1/f),   B = Q - i k a2 / v,
        C = R + i k a2^2 / 2v,

    and Re A = Re P = c_env / s2^2 > 0. Over the whole line the integral is
    sqrt(pi / A) exp(B^2 / 4A + C) (Collins, JOSA 60, 1168 (1970)); the factor
    sqrt(pi / A) cancels in the on-axis normalization, leaving
    K = exp(B^2 / 4A + C). Without an aperture, imaging_amplitude equals
    K(x1, x2) * K(y1, y2). Broadcasts a1, a2.
    """
    return _kernel(*_lens_plane_coefficients(params, lens, a1, a2))


def _kernel(A, B, C) -> np.ndarray:
    """exp(B^2 / 4A + C), built in B's buffer: no further temporary."""
    B *= B
    B /= 4 * A
    B += C
    return np.exp(B)


def lens_plane_nodes(
    params: SourceParams, lens: LensSystem, quad: QuadSettings, x1, y1, x2, y2,
) -> Tuple[int, float, float]:
    """Path choice for these object and image points: (nodes, clip_bound, omega).

    The choice half of _lens_plane, the one lens-plane set-up that
    imaging_amplitude shares: object points beyond the model raise
    ParameterError before any term is formed. nodes, from aperture_nodes,
    is 0 for the closed form, which runs iff quad.nodes is None and the
    clip bound is at most the limit: DOUBLING_TOL when quad.check is set,
    else APERTURE_CLIP_TOL. Otherwise it is the aperture quadrature's first
    count per axis: quad.nodes, so an explicit count always means
    quadrature, or n* for omega, the bandwidth of the lens-plane terms at
    the pairs (x1, x2) and (y1, y2). omega is formed only for the
    quadrature and is 0.0 on the closed form; one that is not finite (image
    points near 1e308 m, or a given count under an aperture whose square
    overflows), and a count that aperture_nodes refuses, raise
    ParameterError before any rule is built.

    clip_bound bounds |closed form - aperture-clipped value| of the
    normalized Phi_I at these object points (x1, y1, any shapes), in units
    of the on-axis value, for every image point. With the coefficients of
    lens_axis_kernel, (Re B)^2 / (4 Re A) + Re C = 0, so the integrand
    magnitude per axis is exactly exp(-Re A (xi - xi_c)^2): a Gaussian of
    peak 1 centred on xi_c = -(s2/s1) a1. In the plane the centre sits at
    radius r_c = (s2/s1) hypot(max|x1|, max|y1|) at most, and the disc of
    radius rho - r_c about it lies inside the aperture, so the part of the
    integral outside the aperture is at most
    (pi / Re A) exp(-Re A (rho - r_c)^2). Against the unclipped on-axis
    value |pi / A| that is b(r_c), with

        b(r) = (|A| / Re A) exp(-Re A (rho - r)^2)  for r < rho, else 1.

    The quadrature path also divides by the clipped on-axis value, which
    differs from pi / A by at most b(0) relative; with |K| <= 1 (true up to
    |A| / Re A - 1, 2e-4 in the default geometry) and to first order, the
    two add to clip_bound = b(r_c) + b(0). It is 8.6e-6 for the default
    4 mm pattern, 4.4e-7 on axis, 1.8e-17 on axis under a 40 mm aperture,
    and 1.8 on axis for a sigma = 40 mm source, whose lens-plane envelope
    the aperture clips.

    Closed-form image maps also zero kernel entries below KERNEL_FLOOR,
    which adds at most 2 * KERNEL_FLOOR = 2e-100 per point to their error.
    The bound leaves that out: it is 90 orders of magnitude below the
    default pattern's bound.
    """
    return _lens_plane(params, lens, quad, x1, y1, x2, y2)[1]


def _lens_plane(params, lens, quad, x1, y1, x2, y2):
    """The one lens-plane set-up of points and maps: ((A, Bx, Cx, By, Cy),
    (nodes, clip_bound, omega)).

    In this order: object points whose distance from the axis reaches
    min(s1, s2), 20 times the paraxial budget, raise ParameterError; the
    exponent terms are formed, one _lens_plane_coefficients call per axis,
    x1 with x2 and y1 with y2 (the two axes need not broadcast together);
    then lens_plane_nodes' path choice, which always ends in
    aperture_nodes. omega = max|B| rho + 2 |Im A| rho^2, max|B| over both
    axes (0 without points): the largest rate of the phase of
    exp(-A xi^2 + B xi) over |xi| <= rho. In focus (u = s1 + s2)
    Im A rho^2 is 0.3 rad at sigma = 3 mm and falls as sigma^-4; a
    defocused lens adds its chirp.
    """
    reach = math.hypot(*(float(np.max(np.abs(a))) if np.size(a) else 0.0 for a in (x1, y1)))
    most = min(params.s1, params.s2)
    if reach >= most:
        raise ParameterError(
            f"object points reach {reach:g} m from the axis, beyond the paraxial "
            f"model's limit min(s1, s2) = {most:g} m"
        )
    A, Bx, Cx = _lens_plane_coefficients(params, lens, x1, x2)
    _, By, Cy = _lens_plane_coefficients(params, lens, y1, y2)
    rho = lens.aperture_radius

    def b(r: float) -> float:
        if r >= rho:
            return 1.0
        gap = rho - r
        return abs(A) / A.real * math.exp(-A.real * (gap * gap))

    bound = b(params.s2 / params.s1 * reach) + b(0.0)
    clipped = bound > (DOUBLING_TOL if quad.check else APERTURE_CLIP_TOL)
    omega = 0.0
    if clipped or quad.nodes is not None:
        largest = max(float(np.max(np.abs(B), initial=0.0)) for B in (Bx, By))
        omega = largest * rho + 2.0 * abs(A.imag) * (rho * rho)
    if not math.isfinite(omega):
        raise ParameterError(f"the lens-plane integrand's bandwidth is {omega:g} rad at these "
                             "points, beyond the aperture quadrature")
    nodes = aperture_nodes(quad, clipped, omega, A.real * (rho * rho))
    return (A, Bx, Cx, By, Cy), (nodes, bound, omega)


# ---------------------------------------------------------------------------
# lens-plane contraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _disc_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Product rule on the unit disc: (nodes, weights W), one node array
    for both axes.

    With phi_a = pi (a + 1/2) / n, the outer nodes are sin(theta_a),
    theta_a = phi_a - pi/2 the midpoints of n equal steps over
    [-pi/2, pi/2], each with the chord |s| <= h_a = cos(theta_a). The
    integrand in theta, cos(theta) times its chord's integral, is smooth,
    2 pi-periodic and even about pi/2, so the steps are the 2n-point
    periodic trapezoidal rule, which converges spectrally (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)). The inner nodes are the Chebyshev
    points s_b = -cos(phi_b), the same set as the outer nodes, and
    W[a, b] = (pi / n) h_a times the integral over chord a of their
    Lagrange basis polynomial l_b, (2 pi / n^2) h_a times the sum over even
    m < n, the m = 0 term halved, of cos(m phi_b) times the integral of T_m
    over the chord, cos((m+1) theta) / (m+1) - cos((m-1) theta) / (m-1).
    Summed by parts, with k < (n + 1) / 2:

        W[a, b] = (4 pi / n^2) sum_k c_k V[k, a] V[k, b],
        V[k, a] = sin(phi_a) sin((2k+1) phi_a),  c_k = (-1)^k / (2k+1),

    the last c_k halved for odd n. The rule integrates x^2p y^2q exactly
    for 2q < n and p + q < n - 1, a full chord (odd n) gets pi / n times
    Fejer's first-rule weights, and W sums to pi. Every sine is read from
    one table of sin(pi i / 2n) at exact integers i mod 4n, so W is exactly
    mirror-symmetric in a and in b, and the odd rule's middle node is 0.
    One quadrant is built, by one real matmul. The arrays are cached and
    read-only; W takes 8 n^2 bytes.
    """
    # sin(pi i / 2n) for i < 4n, from its first quarter wave
    quarter = np.sin(np.pi / (2 * n) * np.arange(n + 1))
    table = np.concatenate([quarter, quarter[-2::-1]])
    table = np.concatenate([table, -table[1:-1]])

    def sin(i):
        return table[i % (4 * n)]

    half, odd = (n + 1) // 2, n % 2
    j = np.arange(1, 2 * half, 2)                    # 2k + 1, and 2a + 1
    v = sin(np.outer(j, j))
    v *= table[j]
    c = (4 * np.pi / n**2) * (-1.0) ** np.arange(half) / j
    if odd:
        c[-1] /= 2
    weights = np.empty((n, n))
    np.matmul(v.T, c[:, None] * v, out=weights[:half, :half])
    weights[:half, half:] = weights[:half, half - 1 - odd::-1]
    weights[half:] = weights[half - 1 - odd::-1]
    nodes = sin(np.arange(1 - n, n, 2))
    for arr in (nodes, weights):
        arr.flags.writeable = False
    return nodes, weights


def _exponent_factors(A, B, C, nodes) -> np.ndarray:
    """(nodes, P) values exp(-A xi^2 + B xi + C) at the node positions xi."""
    e = np.multiply.outer(nodes, B)
    e += C
    e -= (A * nodes * nodes)[:, None]
    return np.exp(e, out=e)


def _disc_sum(A, Bx, Cx, By, Cy, rho, nodes) -> np.ndarray:
    """Unnormalized Phi_I per point from flat per-axis exponent terms.

    The disc rule's sum over the unit disc scaled to the aperture, without
    the area factor rho^2, which cancels in the normalization: per point,
    sum_a X_a (W Y)_a with X and Y the x and y factors on the nodes xi.
    The terms are padded with zeros to whole _POINT_CHUNKs, and W Y is a
    real matmul over the interleaved real and imaginary parts of each chunk
    of points. Points run in blocks of whole chunks that bound the memory
    at about _POINT_BLOCK_ELEMENTS per (points, nodes) array. Returns the
    values of the given points, without the padding.
    """
    s, W = _disc_rule(nodes)
    xi = rho * s
    size = Bx.size
    terms = np.zeros((4, size + -size % _POINT_CHUNK), dtype=complex)
    terms[:, :size] = Bx, Cx, By, Cy
    Bx, Cx, By, Cy = terms
    out = np.empty(Bx.size, dtype=complex)
    step = _POINT_CHUNK * max(1, _POINT_BLOCK_ELEMENTS // (nodes * _POINT_CHUNK))

    def chunks(B, C, at):
        """(chunks, nodes, _POINT_CHUNK) factors of whole chunks of points."""
        v = _exponent_factors(A, B, C, at)
        return v.reshape(nodes, -1, _POINT_CHUNK).transpose(1, 0, 2)

    for p0 in range(0, out.size, step):
        blk = slice(p0, p0 + step)
        vy = np.ascontiguousarray(chunks(By[blk], Cy[blk], xi))
        chord_sums = (W @ vy.view(float)).view(complex)
        chord_sums *= chunks(Bx[blk], Cx[blk], xi)
        out[blk] = chord_sums.sum(axis=1).ravel()
    return out[:size]


def _on_axis_raw(A, rho) -> complex:
    """On-axis reference Phi_I(0,0;0,0) of the quadrature path, exactly.

    On axis the lens-plane integrand is exp(-A r^2) (lens_axis_kernel's A),
    whose integral over the aperture of radius rho in _disc_sum's units,
    the unit disc without the area factor rho^2, is
    pi (1 - exp(-A rho^2)) / (A rho^2).
    """
    a = A * (rho * rho)
    return -math.pi * np.expm1(-a) / a


def imaging_amplitude(
    params: SourceParams,
    lens: LensSystem,
    x1, y1, x2, y2,
    quad: QuadSettings = QuadSettings(),
) -> np.ndarray:
    """Normalized imaging amplitude Phi_I(x1, y1; x2, y2).

    Accepts scalars or broadcastable arrays of object points (x1, y1) and
    image points (x2, y2). The one lens-plane set-up, _lens_plane, refuses
    object points beyond the model first, then forms each point's exponent
    terms once per call, one set per axis, and everything reuses them: the
    path choice and first node count of lens_plane_nodes (omega is read
    from B), the on-axis reference, the closed form and both node counts.
    On the quadrature path check_refinement checks every point at the first
    count against one finer count (16 against 24 nodes for the benchmark's
    clipped PSF scans), and the values at the first count are returned.
    """
    pts = _broadcast_points(x1, y1, x2, y2)
    shape = pts[0].shape
    terms, (nodes, _, _) = _lens_plane(params, lens, quad, *(a.ravel() for a in pts))
    A, Bx, Cx, By, Cy = terms
    if nodes:
        on_axis = _on_axis_raw(A, lens.aperture_radius)
        value, finer = (_disc_sum(*terms, lens.aperture_radius, n) / on_axis
                        for n in (nodes, finer_nodes(nodes)))
        # measured against at least the on-axis value 1 the amplitude is
        # normalized to: image points far from their object's conjugate,
        # ~1e-9 of it, are not held to tol relative to themselves
        check_refinement(value, finer, nodes, quad.check, "the imaging amplitude", floor=1.0)
    else:
        value = _kernel(A, Bx, Cx) * _kernel(A, By, Cy)
    value = value.reshape(shape)
    if not np.all(np.isfinite(value)):
        raise NumericError("imaging amplitude produced non-finite values")
    return value if shape else value[()]


@lru_cache(maxsize=4)
def _phased_map_kernel(params, lens, a1_bytes, a2_bytes) -> np.ndarray:
    """_map_kernel's array, built once per (params, lens, a1 bytes, a2 bytes).

    lens_axis_kernel over a1 x a2, entries below KERNEL_FLOOR zeroed. Cached
    and read-only; an entry takes 16 a1.size a2.size bytes (0.5 MB for a
    128-pixel pattern axis on a 256-pixel camera axis), four at most.
    """
    a1, a2 = np.frombuffer(a1_bytes), np.frombuffer(a2_bytes)
    K = lens_axis_kernel(params, lens, a1[:, None], a2[None, :])
    K[np.abs(K) < KERNEL_FLOOR] = 0.0
    K.flags.writeable = False
    return K


def _map_kernel(params, lens, a1, a2) -> np.ndarray:
    """Read-only (a1.size, a2.size) closed-form map kernel of one axis: the
    floored lens_axis_kernel, cached by the float64 bytes of the
    coordinates."""
    return _phased_map_kernel(
        params, lens,
        np.ascontiguousarray(a1, float).tobytes(),
        np.ascontiguousarray(a2, float).tobytes(),
    )


def _image_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes: int) -> np.ndarray:
    """pattern_image_field's contraction at one node count.

    nodes 0 is the closed form: A = Ky^T W Kx, with the per-axis
    lens_axis_kernel matrices Kx (npx, nx2) and Ky (npy, ny2). Their
    entries below KERNEL_FLOOR are exactly zero, so no product in the
    matmuls is subnormal (slow); each point amplitude moves by at most
    2 * KERNEL_FLOOR in on-axis units. Kx and Ky come from
    _map_kernel's cache, keyed by (params, lens, coordinate bytes) and
    holding four kernels of 16 npx nx2 bytes at most, so a map on a
    geometry seen before pays only the two matmuls; a square, centred
    geometry uses one kernel for both axes.
    Otherwise the object sums collapse onto the disc rule's nodes along x
    and along y, are weighted by its matrix W, and propagate to the image
    grid through Ex and Ey, the image-side terms B xi + C of the lens-plane
    exponent (its source terms vanish at a1 = 0); the x nodes run in
    fixed-size blocks whose partial images are summed in block order.
    """
    if nodes == 0:
        Kx = _map_kernel(params, lens, x1c, x2c)                 # (npx, nx2)
        Ky = _map_kernel(params, lens, y1c, y2c)                 # (npy, ny2)
        field = Ky.T @ weights @ Kx
    else:
        s, W = _disc_rule(nodes)
        xi = lens.aperture_radius * s
        # (nodes, npx) and (nodes, npy) lens-plane factors without the image
        # coordinate, which Ex, Ey carry
        coefficients = _lens_plane_coefficients(params, lens, x1c, 0.0)
        Fx = _exponent_factors(*coefficients, xi)
        Fy = _exponent_factors(*_lens_plane_coefficients(params, lens, y1c, 0.0), xi)
        WF = weights.T @ Fy.T                                    # (npx, nodes)
        _, Bx, Cx = _lens_plane_coefficients(params, lens, 0.0, x2c)
        _, By, Cy = _lens_plane_coefficients(params, lens, 0.0, y2c)
        Ex = _exponent_factors(0.0, Bx, Cx, xi)                  # (nodes, nx2)
        Ey = _exponent_factors(0.0, By, Cy, xi)                  # (nodes, ny2)

        acc = None
        for a0 in range(0, nodes, _NODE_BLOCK):
            rows = slice(a0, a0 + _NODE_BLOCK)
            H = (Fx[rows] @ WF) * W[rows]                        # (blk, nodes)
            part = Ex[rows].T @ (H @ Ey)                         # (nx2, ny2)
            acc = part if acc is None else acc + part
        field = acc.T / _on_axis_raw(coefficients[0], lens.aperture_radius)
    if not np.all(np.isfinite(field)):
        raise NumericError("image-field contraction produced non-finite values")
    return field


def pattern_image_field(
    params: SourceParams,
    lens: LensSystem,
    weights: np.ndarray,
    x1c: np.ndarray,
    y1c: np.ndarray,
    x2c: np.ndarray,
    y2c: np.ndarray,
    quad: QuadSettings = QuadSettings(),
) -> Tuple[np.ndarray, dict]:
    """Coherent image-plane field of a weighted object grid, and its record.

    The field is A[jy, jx] = sum over object pixels of
    weights[iy, ix] * Phi_I(x1c[ix], y1c[iy]; x2c[jx], y2c[jy]), in the
    same normalization as imaging_amplitude, by the x/y separability of
    Phi_I. Each centre array is monotone (pixel centres), and B is affine
    in a1 and a2, so the axis ends reach the largest |a1| and |B|:
    lens_plane_nodes, given those alone, refuses an object beyond the
    model and picks the lens-plane path and the first count, which
    _image_field contracts once, over the whole camera. On the quadrature
    path check_refinement compares that field, on at most 16 x 16 strided
    camera pixels with the first and last rows and columns, against the
    finer count there: at 1.25n a whole 256^2 camera would cost ~3x as
    much. The field is the first count's.

    The record holds lens_path ("closed-form" or "quadrature"), clip_bound,
    aperture_nodes (the count used, 0 on the closed form) and
    error_estimate: the measured change against the finer count on the
    quadrature path (error_kind "refinement"), else clip_bound
    ("clip_bound"); both bound the lens plane only. Quadrature records
    also hold why the count was used: aperture_bandwidth_rad, the
    bandwidth omega that sized it (aperture_nodes), and
    aperture_check_nodes, the finer count.
    """
    nodes, bound, omega = lens_plane_nodes(
        params, lens, quad, x1c[[0, -1], None], y1c[[0, -1], None], x2c[[0, -1]], y2c[[0, -1]]
    )
    field = _image_field(params, lens, weights, x1c, y1c, x2c, y2c, nodes)
    record = {"lens_path": "closed-form", "clip_bound": bound, "aperture_nodes": nodes,
              "error_estimate": bound, "error_kind": "clip_bound"}
    if nodes:
        iy, ix = (np.linspace(0, a.size - 1, min(a.size, 16)).round().astype(np.intp)
                  for a in (y2c, x2c))
        finer = finer_nodes(nodes)
        check = _image_field(params, lens, weights, x1c, y1c, x2c[ix], y2c[iy], finer)
        record.update(
            lens_path="quadrature", aperture_bandwidth_rad=omega, aperture_check_nodes=finer,
            error_estimate=check_refinement(field[np.ix_(iy, ix)], check, nodes, quad.check,
                                            "the image field"),
            error_kind="refinement",
        )
    return field, record
