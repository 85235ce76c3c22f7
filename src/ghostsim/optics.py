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
  ``lens_plane_nodes`` alone forms and derives. The map kernels depend on
  the geometry only, never on the pattern or the polarizer angles: each is
  built once, its entries below KERNEL_FLOOR zeroed, and cached
  (``_phased_map_kernel``), so a sweep over one geometry is two matmuls a
  map.
- quadrature over the aperture disc (``_disc_rule``): outer nodes
  xi = rho sin(theta), theta Gauss-Legendre, and one inner Gauss-Legendre
  set whose weights W integrate exactly over each outer node's chord. The
  substitution removes the square-root ends of the chords, so the rule
  converges spectrally (Davis & Rabinowitz, Methods of Numerical
  Integration, 2nd ed. 1984, ch. 5). By the x/y separability of Phi, points
  and image maps contract per-axis factors through the one matrix W, and
  divide by the exact on-axis value pi (1 - exp(-A rho^2)) / A, the
  integral of exp(-A r^2) over the aperture (``_on_axis_raw``).

``lens_plane_nodes`` picks the path for both ``imaging_amplitude`` and the
image maps: the closed form when no node count is given and the clip bound
is at most the tolerance (biphoton.DOUBLING_TOL under quad.check, else
APERTURE_CLIP_TOL); quadrature otherwise. It first rejects object points
that reach min(s1, s2) from the axis. On the quadrature path the first node
count comes from the integrand itself (``aperture_nodes``): its largest
lens-plane phase rate over the aperture, the bandwidth omega, which
``lens_plane_nodes`` forms over the object and image points it is given,
and the curvature of its Gaussian envelope. The package's one node check,
``biphoton.converged_nodes``, then compares every point amplitude (for
image maps: a strided sub-camera of at most 16 x 16 pixels) with one finer
count, ~1.25 times as many nodes, and moves on to that count only if the
change exceeds DOUBLING_TOL; an explicit count is checked once against its
double. The quadrature path is the independent oracle the closed form is
tested against where nothing clips.
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
    _leggauss,
    converged_nodes,
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
    (lens_plane_nodes); else n* sized to the integrand, for converged_nodes
    to check.

    Per axis the integrand is exp(-a s^2 + b s) on s = xi / rho in [-1, 1],
    with a = A rho^2 and b = B rho (_lens_plane_coefficients). omega is
    the largest rate of its phase over the aperture (lens_plane_nodes),
    read only where n* is formed; envelope is Re a, the curvature of its
    Gaussian envelope. Gauss-Legendre error on an analytic integrand falls
    super-exponentially once n passes its bandwidth (Trefethen, SIAM Rev. 50, 67 (2008), Thm 4.5; Approximation
    Theory and Approximation Practice, ch. 19): exp(i omega s) needs
    omega plus a transition of width ~omega^(1/3), and exp(-a s^2), whose
    Chebyshev coefficients fall as exp(-k^2 / 4a), ~sqrt(a ln(1/tol)) more.
    So

        n* = omega + 8 omega^(1/3) + 9 sqrt(Re a),

    rounded up to a multiple of 8 and at most MAX_NODES, the constants
    calibrated against 1536 to 2048 nodes (largest error in on-axis units
    for points, of peak for map fields):
    - 141-point clipped PSF scans (sigma = 40 mm, Re a = 0.09), the first 40
      of the benchmark's seed 0: omega = 4.4-6.1 rad, n* = 24; at 16, 20,
      24 and 28 nodes the worst error is 6.9e-7, 6.5e-10, 3.5e-13 and 2e-15.
    - Maps of a 4 mm pattern onto a camera over m * 4.5 mm, omega = 290
      rad: at 320, 336, 344 and 352 nodes the errors are 1.2e-8, 4.5e-12,
      4e-14 and 6e-15 at sigma = 40 mm (n* = 352), and 1.4e-8, 1.8e-11,
      3.8e-13 and 6e-15 at sigma = 3 mm (n* = 384). With rho = 12.5 mm,
      omega = 144 rad: 1.4e-10 at 176 and 5e-15 at n* = 192.
    - sigma = 3 mm (Re a = 15.3): PSF lines with omega = 5.7-8.0 rad need
      48 nodes for 1e-13, where sigma = 40 mm needs 24; n* = 56-64. Over
      rho = 12.5-60 mm, sigma = 2-40 mm (Re a = 0.02-198) and object
      points out to (4, 4) mm, the error at n* is at most 9.4e-15, at up
      to 1.6 times the count that first reaches 1e-13.
    n(1e-8) ~ omega + 7 omega^(1/3) fits the bandwidth-bound cases; the
    larger margin puts the values at n* near 1e-14, far inside
    DOUBLING_TOL, so the check at ~1.25 n* passes at once.
    """
    if quad.nodes is not None:
        return quad.nodes
    if not clipped:
        return 0
    n = omega + 8.0 * omega ** (1 / 3) + 9.0 * math.sqrt(envelope)
    return min(MAX_NODES, 8 * max(1, math.ceil(n / 8)))


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


def _bandwidth(params: SourceParams, lens: LensSystem, x1, y1, x2, y2) -> float:
    """omega = max|B| rho + 2 |Im A| rho^2 (aperture_nodes), max|B| over
    the pairs (x1, x2) and (y1, y2), each broadcast together (0 without
    points): the largest rate of the phase of exp(-A xi^2 + B xi) over
    |xi| <= rho. In focus (u = s1 + s2) Im A rho^2 is 0.3 rad at
    sigma = 3 mm and falls as sigma^-4; a defocused lens adds its chirp."""
    largest = 0.0
    for a1, a2 in ((x1, x2), (y1, y2)):
        A, B, _ = _lens_plane_coefficients(params, lens, a1, a2)
        if B.size:
            largest = max(largest, float(np.max(np.abs(B))))
    rho = lens.aperture_radius
    return largest * rho + 2.0 * abs(A.imag) * rho**2


def _object_reach(params: SourceParams, x1, y1) -> float:
    """Largest distance of the object points from the axis; ParameterError
    where it reaches min(s1, s2), 20 times the paraxial budget, beyond the
    model. Callers check it before they form any lens-plane term."""
    reach = math.hypot(*(float(np.max(np.abs(a))) if np.size(a) else 0.0 for a in (x1, y1)))
    most = min(params.s1, params.s2)
    if reach >= most:
        raise ParameterError(
            f"object points reach {reach:g} m from the axis, beyond the paraxial "
            f"model's limit min(s1, s2) = {most:g} m"
        )
    return reach


def lens_plane_nodes(
    params: SourceParams, lens: LensSystem, quad: QuadSettings, x1, y1, x2, y2,
) -> Tuple[int, float, float]:
    """Path choice for these object and image points: (nodes, clip_bound, omega).

    Object points beyond the model raise ParameterError (_object_reach).
    nodes, from aperture_nodes, is 0 for the closed form, which runs iff
    quad.nodes is None and the clip bound is at most the limit:
    DOUBLING_TOL when quad.check is set, else APERTURE_CLIP_TOL. Otherwise
    it is the aperture quadrature's first count per axis: quad.nodes, so
    an explicit count always means quadrature, or n* for omega, the
    bandwidth of the values at the pairs (x1, x2) and (y1, y2)
    (_bandwidth). omega is formed only for the quadrature and is 0.0 on
    the closed form.

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
    reach = _object_reach(params, x1, y1)
    A, _, _ = _lens_plane_coefficients(params, lens, 0.0, 0.0)
    rho = lens.aperture_radius

    def b(r: float) -> float:
        if r >= rho:
            return 1.0
        return abs(A) / A.real * math.exp(-A.real * (rho - r) ** 2)

    bound = b(params.s2 / params.s1 * reach) + b(0.0)
    clipped = bound > (DOUBLING_TOL if quad.check else APERTURE_CLIP_TOL)
    quadrature = clipped or quad.nodes is not None
    omega = _bandwidth(params, lens, x1, y1, x2, y2) if quadrature else 0.0
    return aperture_nodes(quad, clipped, omega, A.real * rho**2), bound, omega


# ---------------------------------------------------------------------------
# lens-plane contraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _disc_rule(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product rule on the unit disc: (outer nodes, inner nodes, weights).

    Outer nodes sin(theta_a), theta_a Gauss-Legendre on [-pi/2, pi/2] with
    weights v_a, each with the chord |s| <= h_a = cos(theta_a); inner nodes
    s_b Gauss-Legendre on [-1, 1] with weights w_b. W[a, b] = v_a h_a times
    the integral over chord a of the Lagrange basis polynomial l_b of the
    inner nodes, which is sum over even m of (2m+1)/2 w_b P_m(s_b) I_m(h_a),
    I_0 = 2h, I_m = 2 (P_(m+1)(h) - P_(m-1)(h)) / (2m+1). A full chord gives
    back w_b, and W sums to pi. W is mirror-symmetric in a and in b, so one
    quadrant is built, by one real matmul. The arrays are cached and
    read-only; W takes 8 n^2 bytes.
    """
    t, w = _leggauss(n)
    half, odd = (n + 1) // 2, n % 2
    h = np.cos(0.5 * np.pi * t[:half])
    # P_j at the inner nodes (first half) and at the chord ends, in one array
    x = np.concatenate([t[:half], h])
    legendre_s = np.empty((half, half))   # row k: P_2k at the inner nodes
    integral_h = np.empty((half, half))   # row k: (4k+1)/2 I_2k at the chords
    legendre_s[0], integral_h[0] = 1.0, h
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, half):
        # p = P_j for j = 2k - 1: step to P_2k, then to P_(2k+1)
        j = 2 * k - 1
        p_even = ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        p_next = ((2 * j + 3) * x * p_even - (j + 1) * p) / (j + 2)
        legendre_s[k] = p_even[:half]
        np.subtract(p_next[half:], p[half:], out=integral_h[k])
        p_prev, p = p_even, p_next
    legendre_s *= w[:half]
    integral_h *= 0.5 * np.pi * w[:half] * h
    weights = np.empty((n, n))
    np.matmul(integral_h.T, legendre_s, out=weights[:half, :half])
    weights[:half, half:] = weights[:half, half - 1 - odd::-1]
    weights[half:] = weights[half - 1 - odd::-1]
    outer = np.sin(0.5 * np.pi * t)
    for arr in (outer, weights):
        arr.flags.writeable = False
    return outer, t, weights


def _exponent_factors(A, B, C, nodes) -> np.ndarray:
    """(nodes, P) values exp(-A xi^2 + B xi + C) at the node positions xi."""
    e = np.multiply.outer(nodes, B)
    e += C
    e -= (A * nodes * nodes)[:, None]
    return np.exp(e, out=e)


def _padded(*terms) -> np.ndarray:
    """Flat complex arrays of one size as the rows of one array, padded with
    zeros to whole _POINT_CHUNKs."""
    size = terms[0].size
    out = np.zeros((len(terms), size + -size % _POINT_CHUNK), dtype=complex)
    for row, a in zip(out, terms):
        row[:size] = a
    return out


def _disc_sum(A, Bx, Cx, By, Cy, rho, nodes) -> np.ndarray:
    """Unnormalized Phi_I per point from padded per-axis exponent terms.

    The disc rule's sum over the unit disc scaled to the aperture, without
    the area factor rho^2, which cancels in the normalization: per point,
    sum_a X_a (W Y)_a with X on the outer nodes and Y on the inner nodes.
    W Y is a real matmul over the interleaved real and imaginary parts of
    each chunk of points. Points run in blocks of whole chunks that bound
    the memory at about _POINT_BLOCK_ELEMENTS per (points, nodes) array.
    """
    outer, inner, W = _disc_rule(nodes)
    xi, eta = rho * outer, rho * inner
    out = np.empty(Bx.size, dtype=complex)
    step = _POINT_CHUNK * max(1, _POINT_BLOCK_ELEMENTS // (nodes * _POINT_CHUNK))

    def chunks(B, C, at):
        """(chunks, nodes, _POINT_CHUNK) factors of whole chunks of points."""
        v = _exponent_factors(A, B, C, at)
        return v.reshape(nodes, -1, _POINT_CHUNK).transpose(1, 0, 2)

    for p0 in range(0, out.size, step):
        blk = slice(p0, p0 + step)
        vy = np.ascontiguousarray(chunks(By[blk], Cy[blk], eta))
        chord_sums = (W @ vy.view(float)).view(complex)
        chord_sums *= chunks(Bx[blk], Cx[blk], xi)
        out[blk] = chord_sums.sum(axis=1).ravel()
    return out


def _on_axis_raw(params, lens) -> complex:
    """On-axis reference Phi_I(0,0;0,0) of the quadrature path, exactly.

    On axis the lens-plane integrand is exp(-A r^2) (lens_axis_kernel's A),
    whose integral over the aperture in _disc_sum's units, the unit disc
    without the area factor rho^2, is pi (1 - exp(-A rho^2)) / (A rho^2).
    """
    A, _, _ = _lens_plane_coefficients(params, lens, 0.0, 0.0)
    a = A * lens.aperture_radius**2
    return -math.pi * np.expm1(-a) / a


def imaging_amplitude(
    params: SourceParams,
    lens: LensSystem,
    x1, y1, x2, y2,
    quad: QuadSettings = QuadSettings(),
) -> np.ndarray:
    """Normalized imaging amplitude Phi_I(x1, y1; x2, y2).

    Accepts scalars or broadcastable arrays of object points (x1, y1) and
    image points (x2, y2). lens_plane_nodes first refuses object points
    beyond the model and picks the lens-plane path and the first node count
    for the points. Each point's lens-plane exponent terms are then formed
    once per call; the closed form and every node count reuse them. On the
    quadrature path converged_nodes checks every point at the first count
    against one finer count (24 against 32 nodes for the benchmark's clipped
    PSF scans), and the values at the count it accepts are returned.
    """
    pts = _broadcast_points(x1, y1, x2, y2)
    shape = pts[0].shape
    nodes, _, _ = lens_plane_nodes(params, lens, quad, *pts)
    x1, y1, x2, y2 = (a.ravel() for a in pts)
    A, Bx, Cx = _lens_plane_coefficients(params, lens, x1, x2)
    _, By, Cy = _lens_plane_coefficients(params, lens, y1, y2)
    rho = lens.aperture_radius
    if nodes:
        size, terms, on_axis = Bx.size, _padded(Bx, Cx, By, Cy), _on_axis_raw(params, lens)
        # measured against at least the on-axis value 1 the amplitude is
        # normalized to: image points far from their object's conjugate,
        # ~1e-9 of it, are not held to tol relative to themselves
        _, _, value = converged_nodes(
            lambda n: _disc_sum(A, *terms, rho, n)[:size] / on_axis,
            nodes, quad, "the imaging amplitude", floor=1.0,
        )
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


def pattern_image_field(
    params: SourceParams,
    lens: LensSystem,
    weights: np.ndarray,
    x1c: np.ndarray,
    y1c: np.ndarray,
    x2c: np.ndarray,
    y2c: np.ndarray,
    nodes: int,
) -> np.ndarray:
    """Coherent image-plane field of a weighted object grid.

    Computes A[jy, jx] = sum over object pixels of
    weights[iy, ix] * Phi_I(x1c[ix], y1c[iy]; x2c[jx], y2c[jy]), in the same
    normalization as imaging_amplitude, using the x/y separability of Phi_I.

    nodes 0 is the closed form: A = Ky^T W Kx, with the per-axis
    lens_axis_kernel matrices Kx (npx, nx2) and Ky (npy, ny2). Their
    entries below KERNEL_FLOOR are exactly zero, so no product in the
    matmuls is subnormal (slow); each point amplitude moves by at most
    2 * KERNEL_FLOOR in on-axis units. Kx and Ky come from
    _map_kernel's cache, keyed by (params, lens, coordinate bytes) and
    holding four kernels of 16 npx nx2 bytes at most, so a map on a
    geometry seen before pays only the two matmuls; a square, centred
    geometry uses one kernel for both axes.
    Otherwise the object sums collapse onto the disc rule's outer (x) and
    inner (y) nodes, are weighted by its matrix W, and propagate to the
    image grid through Ex and Ey, the image-side terms B xi + C of the
    lens-plane exponent (its source terms vanish at a1 = 0); the outer nodes
    run in fixed-size blocks whose partial images are summed in block order.
    """
    if nodes == 0:
        Kx = _map_kernel(params, lens, x1c, x2c)                 # (npx, nx2)
        Ky = _map_kernel(params, lens, y1c, y2c)                 # (npy, ny2)
        field = Ky.T @ weights @ Kx
    else:
        outer, inner, W = _disc_rule(nodes)
        xi, eta = lens.aperture_radius * outer, lens.aperture_radius * inner
        # (nodes, npx) and (nodes, npy) lens-plane factors without the image
        # coordinate, which Ex, Ey carry
        Fx = _exponent_factors(*_lens_plane_coefficients(params, lens, x1c, 0.0), xi)
        Fy = _exponent_factors(*_lens_plane_coefficients(params, lens, y1c, 0.0), eta)
        WF = weights.T @ Fy.T                                    # (npx, nodes)
        _, Bx, Cx = _lens_plane_coefficients(params, lens, 0.0, x2c)
        _, By, Cy = _lens_plane_coefficients(params, lens, 0.0, y2c)
        Ex = np.exp(np.multiply.outer(xi, Bx) + Cx)              # (nodes, nx2)
        Ey = np.exp(np.multiply.outer(eta, By) + Cy)             # (nodes, ny2)

        acc = None
        for a0 in range(0, nodes, _NODE_BLOCK):
            rows = slice(a0, a0 + _NODE_BLOCK)
            H = (Fx[rows] @ WF) * W[rows]                        # (blk, nodes)
            part = Ex[rows].T @ (H @ Ey)                         # (nx2, ny2)
            acc = part if acc is None else acc + part
        field = acc.T / _on_axis_raw(params, lens)
    if not np.all(np.isfinite(field)):
        raise NumericError("image-field contraction produced non-finite values")
    return field
