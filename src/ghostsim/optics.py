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
  exp(-A xi^2 + B xi + C), so over the whole plane the integral is exact
  (``lens_axis_kernel``) and Phi_I = Kx * Ky * output phase; an image map is
  two small matrix products, Ky^T W Kx. It leaves out the aperture, which
  ``clip_bound`` shows to change the normalized amplitude by at most
  b(r_c) + b(0), b(r) = (|A|/Re A) exp(-Re A (rho - r)^2).
- quadrature. Gauss-Legendre nodes on the aperture square, with the x/y
  separability of Phi turning the double integral into contractions over
  the node axes, over the lattice nodes inside the circular aperture. At
  points (imaging_amplitude, and the on-axis reference both paths divide
  by) the disc is a set of chords, one per xi node, and each inner sum is a
  difference of two prefix sums: O(nodes) per point. An image map applies
  the disc as a 0/1 mask, blockwise, to its non-separable object sums.

``lens_plane_nodes`` picks the path for both ``imaging_amplitude`` and the
image maps: the closed form when no node count is given and the clip bound
is at most the tolerance (quad.tol under quad.check, else
APERTURE_CLIP_TOL); quadrature otherwise. The quadrature path is the
independent oracle the closed form is tested against where nothing clips.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .biphoton import (
    QuadSettings,
    SourceParams,
    _leggauss,
    axis_amplitude,
    doubling_check,
    doubling_probe,
    envelope_coefficients,
)
from .errors import (
    ApertureSamplingWarning,
    NumericError,
    ParameterError,
    outside_stacklevel,
)

# first zero of the Bessel function J1, fixing the Airy radius 3.83 * v / (k rho)
AIRY_FIRST_ZERO = 3.8317059702075125

IMAGING_CONDITION_TOL = 1e-9

# node-axis block size of the quadrature map contraction; blocks are summed
# in a fixed order, so the bytes of a result never depend on the worker count
_NODE_BLOCK = 512

# (points x nodes) elements per block of the quadrature point contraction:
# 16 MB per complex array
_POINT_BLOCK_ELEMENTS = 1 << 20

# clip_bound at or below which the closed form replaces the aperture
# quadrature when quad.check is off. In the default geometry (sigma = 3 mm,
# s1 = 1.33 m, s2 = 1.5 m, f = 1.5 m, 25 mm aperture) it admits object points
# out to a radius of ~5 mm; the default 4 mm pattern gives 8.6e-6.
APERTURE_CLIP_TOL = 1e-4

AUTO_NODES_MIN = 256
AUTO_NODES_MAX = 8192


@dataclass(frozen=True)
class LensSystem:
    """Thin imaging lens with a circular aperture.

    f: focal length, meters.
    u: object distance, meters (object plane to lens).
    v: image distance, meters; None solves the imaging condition
       1/u + 1/v = 1/f.
    aperture_radius: circular aperture radius in meters.
    """

    f: float
    u: float
    v: Optional[float] = None
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
        if self.v is None:
            object.__setattr__(self, "v", 1.0 / (1.0 / self.f - 1.0 / self.u))
        else:
            if not np.isfinite(self.v) or self.v <= 0:
                raise ParameterError(f"v must be finite and > 0, got {self.v!r}")
            gap = abs(1.0 / self.u + 1.0 / self.v - 1.0 / self.f)
            if gap > IMAGING_CONDITION_TOL:
                raise ParameterError(
                    f"imaging condition violated: |1/u + 1/v - 1/f| = {gap:.3e} "
                    f"exceeds {IMAGING_CONDITION_TOL:g} 1/m"
                )

    @property
    def magnification(self) -> float:
        return self.v / self.u


def lens_phase(f: float, k: float, xi, eta) -> np.ndarray:
    """Unit-magnitude lens factor exp(-i k (xi^2 + eta^2) / (2 f))."""
    if f <= 0:
        raise ParameterError("focal length must be positive")
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    return np.exp(-1j * k * (xi * xi + eta * eta) / (2.0 * f))


def fresnel_kernel(dist: float, k: float, dx, dy) -> np.ndarray:
    """Unit-magnitude paraxial propagator exp(+i k (dx^2 + dy^2) / (2 dist))."""
    if dist <= 0:
        raise ParameterError("propagation distance must be positive")
    dx = np.asarray(dx, float)
    dy = np.asarray(dy, float)
    return np.exp(1j * k * (dx * dx + dy * dy) / (2.0 * dist))


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


def fresnel_number(lens: LensSystem, k: float) -> float:
    """Aperture Fresnel number k rho^2 / (2 pi min(u, v))."""
    return k * lens.aperture_radius**2 / (2.0 * np.pi * min(lens.u, lens.v))


def rule_nodes(lens: LensSystem, k: float) -> int:
    """Node count per axis from the aperture sampling rule.

    Requires uniform-equivalent node spacing 2*rho/n at most rho/(8*N_F),
    i.e. n >= 16 * N_F, clamped to a practical range.
    """
    n = math.ceil(16.0 * fresnel_number(lens, k))
    return int(min(max(n, AUTO_NODES_MIN), AUTO_NODES_MAX))


def aperture_nodes(lens: LensSystem, k: float, quad: QuadSettings) -> int:
    """Resolve the per-axis node count, warning on under-sampling overrides.

    The ApertureSamplingWarning points at the first caller outside ghostsim,
    whether that calls this function, imaging_amplitude or ghost_image_map.
    """
    wanted = rule_nodes(lens, k)
    if quad.nodes is None:
        return wanted
    if quad.nodes < wanted:
        warnings.warn(
            f"{quad.nodes} aperture nodes per axis is below the sampling-rule "
            f"count {wanted}; oscillations may be unresolved",
            ApertureSamplingWarning,
            stacklevel=outside_stacklevel(),
        )
    return quad.nodes


# ---------------------------------------------------------------------------
# closed-form lens-plane kernel and the path choice
# ---------------------------------------------------------------------------


def _lens_plane_coefficients(params: SourceParams, lens: LensSystem, a1, a2):
    """(A, B, C) of the per-axis lens-plane exponent -A xi^2 + B xi + C.

    A is a complex scalar; B and C broadcast a1 (object) against a2 (image).
    The formulas are in lens_axis_kernel.
    """
    c_env, c_chirp = envelope_coefficients(params)
    c = complex(c_env, c_chirp)
    k, s1, s2 = params.k, params.s1, params.s2
    a1 = np.asarray(a1, float)
    a2 = np.asarray(a2, float)
    A = c / s2**2 - 0.5j * k * (1 / s2 + 1 / lens.v - 1 / lens.f)
    B = (-2 * c / (s1 * s2)) * a1 - (1j * k / lens.v) * a2
    C = (-c / s1**2 + 0.5j * k / s1) * (a1 * a1)
    return A, B, C


def lens_axis_kernel(params: SourceParams, lens: LensSystem, a1, a2) -> np.ndarray:
    """Closed-form lens-plane integral along one axis, normalized to K(0, 0) = 1.

    Along one lens-plane axis xi the integrand of Phi_I (source factor, lens
    phase, and the xi-dependent part of the Fresnel step) is
    exp(-A xi^2 + B xi + C); with c = c_env + i c_chirp,

        A = c / s2^2 - (i k / 2) (1/s2 + 1/v - 1/f)
        B = -2 c a1 / (s1 s2) - i k a2 / v
        C = -c a1^2 / s1^2 + (i k / 2) a1^2 / s1

    and Re A = c_env / s2^2 > 0. Over the whole line the integral is
    sqrt(pi / A) exp(B^2 / 4A + C) (Collins, JOSA 60, 1168 (1970)); the factor
    sqrt(pi / A) cancels in the on-axis normalization, leaving
    K = exp(B^2 / 4A + C). Without an aperture, imaging_amplitude equals
    K(x1, x2) * K(y1, y2) * fresnel_kernel(v, k, x2, y2). Broadcasts a1, a2.
    """
    A, B, C = _lens_plane_coefficients(params, lens, a1, a2)
    return np.exp(B * B / (4 * A) + C)


def clip_bound(params: SourceParams, lens: LensSystem, x1, y1) -> float:
    """Bound on how much the aperture changes imaging amplitudes of these objects.

    x1, y1 are object-plane coordinates (any shapes). The result bounds
    |closed form - aperture-clipped value| of the normalized Phi_I, in units
    of the on-axis value, for every image point.

    Derivation. With the coefficients of lens_axis_kernel,
    (Re B)^2 / (4 Re A) + Re C = 0, so the integrand magnitude per axis is
    exactly exp(-Re A (xi - xi_c)^2): a Gaussian of peak 1 centred on
    xi_c = -(s2/s1) a1. In the plane the centre sits at radius
    r_c = (s2/s1) hypot(max|x1|, max|y1|) at most, and the disc of radius
    rho - r_c about it lies inside the aperture, so the part of the
    integral outside the aperture is at most
    (pi / Re A) exp(-Re A (rho - r_c)^2). Against the unclipped on-axis
    value |pi / A| that is b(r_c), with

        b(r) = (|A| / Re A) exp(-Re A (rho - r)^2)  for r < rho, else 1.

    The quadrature path also divides by the clipped on-axis value, which
    differs from pi / A by at most b(0) relative; with |K| <= 1 (true up to
    |A| / Re A - 1, 2e-4 in the default geometry) and to first order, the
    two add to clip_bound = b(r_c) + b(0). It is 8.6e-6 for the default
    4 mm pattern, and 1.8 on axis for a sigma = 40 mm source, whose
    lens-plane envelope the aperture clips.
    """
    A, _, _ = _lens_plane_coefficients(params, lens, 0.0, 0.0)
    rho = lens.aperture_radius

    def b(r: float) -> float:
        if r >= rho:
            return 1.0
        return abs(A) / A.real * math.exp(-A.real * (rho - r) ** 2)

    reach = [float(np.max(np.abs(a))) if np.size(a) else 0.0 for a in (x1, y1)]
    r_c = params.s2 / params.s1 * math.hypot(*reach)
    return b(r_c) + b(0.0)


def lens_plane_nodes(
    params: SourceParams, lens: LensSystem, quad: QuadSettings, x1, y1
) -> Tuple[int, float]:
    """Path choice for these object points: (nodes, clip_bound).

    nodes is 0 for the closed form, which runs iff quad.nodes is None and the
    clip bound is at most the limit: quad.tol when quad.check is set, else
    APERTURE_CLIP_TOL. Otherwise nodes is the aperture quadrature's count
    per axis (aperture_nodes, which warns on under-sampling overrides), so an
    explicit quad.nodes always means quadrature.
    """
    nodes = aperture_nodes(lens, params.k, quad)
    bound = clip_bound(params, lens, x1, y1)
    limit = quad.tol if quad.check else APERTURE_CLIP_TOL
    if quad.nodes is None and bound <= limit:
        nodes = 0
    return nodes, bound


# ---------------------------------------------------------------------------
# lens-plane contraction
# ---------------------------------------------------------------------------


def _lens_nodes(lens: LensSystem, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    t, w = _leggauss(nodes)
    rho = lens.aperture_radius
    return rho * t, rho * w


def _walk(pos: np.ndarray, step: int, go) -> np.ndarray:
    """Move each entry of pos by step for as long as go(pos) holds there."""
    while True:
        move = go(pos)
        if not move.any():
            return pos
        pos = pos + step * move


def _chord_bounds(xi: np.ndarray, rho2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Aperture chords on a node axis: (lo, hi) with row a of the disc in [lo[a], hi[a]).

    xi is ascending and mirror-symmetric about 0 (as Gauss-Legendre nodes
    are). Row a of the disc mask xi[a]**2 + xi[b]**2 <= rho2 is then one
    contiguous range of b, centred on the middle node, because xi[b]**2
    falls and then rises along b and rounding is monotone. searchsorted on
    the chord half-width places lo; lo is then walked node by node with that
    same predicate, so membership equals the mask's bit for bit, and hi is
    its mirror image. An empty chord comes out as lo == hi.
    """
    n = xi.size
    sq = xi * xi
    mid = (n + 1) // 2
    lo = np.searchsorted(xi, -np.sqrt(np.maximum(rho2 - sq, 0.0)))
    lo = _walk(lo, -1, lambda b: (b > 0) & (sq + sq[b - 1] <= rho2))
    lo = _walk(lo, +1, lambda b: (b < mid) & (sq + sq[np.minimum(b, n - 1)] > rho2))
    return lo, np.maximum(n - lo, lo)


def _axis_factors(params, lens, a1, a2, xi, log_w) -> np.ndarray:
    """(P, nodes) lens-plane factors along one axis, weights included.

    exp(-A xi^2 + B xi + C + log w): the source axis factor, the linear
    Fresnel term, the lens and Fresnel quadratic phases and the quadrature
    weight, as one exponent (coefficients of lens_axis_kernel).
    """
    A, B, C = _lens_plane_coefficients(params, lens, a1, a2)
    e = np.multiply.outer(B, xi)
    e += C[:, None]
    e += log_w - A * xi * xi
    return np.exp(e, out=e)


def _imaging_raw(params, lens, x1, y1, x2, y2, nodes) -> np.ndarray:
    """Unnormalized Phi_I at flat point arrays, without the output phase.

    The aperture disc is summed chord by chord on the square Gauss-Legendre
    lattice, over exactly the nodes of the disc mask: for each outer xi node
    a the inner eta sum over [lo[a], hi[a]) is a difference of two prefix
    sums, so each point costs O(nodes). Points run in blocks that bound the
    memory at about _POINT_BLOCK_ELEMENTS per (points, nodes) array.
    """
    xi, wxi = _lens_nodes(lens, nodes)
    lo, hi = _chord_bounds(xi, lens.aperture_radius**2)
    log_w = np.log(wxi)
    out = np.empty(x1.size, dtype=complex)
    step = max(1, _POINT_BLOCK_ELEMENTS // nodes)
    for p0 in range(0, x1.size, step):
        blk = slice(p0, p0 + step)
        vy = _axis_factors(params, lens, y1[blk], y2[blk], xi, log_w)
        prefix = np.zeros((vy.shape[0], nodes + 1), dtype=complex)
        np.cumsum(vy, axis=1, out=prefix[:, 1:])
        inner = prefix[:, hi]
        inner -= prefix[:, lo]
        vx = _axis_factors(params, lens, x1[blk], x2[blk], xi, log_w)
        out[blk] = np.einsum("pa,pa->p", vx, inner)
    return out


def _on_axis_raw(params, lens, nodes) -> complex:
    """Clipped on-axis reference Phi_I(0,0;0,0) of the quadrature path."""
    zero = np.zeros(1)
    return _imaging_raw(params, lens, zero, zero, zero, zero, nodes)[0]


def _point_amplitude(params, lens, x1, y1, x2, y2, nodes) -> np.ndarray:
    """Normalized Phi_I at flat point arrays; nodes 0 is the closed form."""
    if nodes == 0:
        value = lens_axis_kernel(params, lens, x1, x2) * lens_axis_kernel(params, lens, y1, y2)
    else:
        value = _imaging_raw(params, lens, x1, y1, x2, y2, nodes) / _on_axis_raw(
            params, lens, nodes
        )
    return value * fresnel_kernel(lens.v, params.k, x2, y2)


def imaging_amplitude(
    params: SourceParams,
    lens: LensSystem,
    x1, y1, x2, y2,
    quad: QuadSettings = QuadSettings(),
) -> np.ndarray:
    """Normalized imaging amplitude Phi_I(x1, y1; x2, y2).

    Accepts scalars or broadcastable arrays of object points (x1, y1) and
    image points (x2, y2). The lens-plane path is chosen by lens_plane_nodes.
    On the quadrature path with quad.check, a strided probe spanning the
    output (doubling_probe) is re-evaluated at doubled nodes and a
    disagreement above quad.tol raises ConvergenceError.
    """
    pts = np.broadcast_arrays(
        np.asarray(x1, float), np.asarray(y1, float),
        np.asarray(x2, float), np.asarray(y2, float),
    )
    shape = pts[0].shape
    nodes, _ = lens_plane_nodes(params, lens, quad, pts[0], pts[1])
    value = _point_amplitude(params, lens, *(a.ravel() for a in pts), nodes).reshape(shape)

    if quad.check and nodes:
        probe = doubling_probe(shape)
        fine = _point_amplitude(params, lens, *(np.ravel(a[probe]) for a in pts), 2 * nodes)
        doubling_check(value[probe], fine, nodes, quad.tol, "the imaging amplitude")

    if not np.all(np.isfinite(value)):
        raise NumericError("imaging amplitude produced non-finite values")
    return value if shape else value[()]


def pattern_image_field(
    params: SourceParams,
    lens: LensSystem,
    weights: np.ndarray,
    x1c: np.ndarray,
    y1c: np.ndarray,
    x2c: np.ndarray,
    y2c: np.ndarray,
    nodes: int,
    workers: int = 1,
) -> np.ndarray:
    """Coherent image-plane field of a weighted object grid.

    Computes A[jy, jx] = sum over object pixels of
    weights[iy, ix] * Phi_I(x1c[ix], y1c[iy]; x2c[jx], y2c[jy]), in the same
    normalization as imaging_amplitude, using the x/y separability of Phi_I.

    nodes 0 is the closed form: A = Ky^T W Kx times the output phase, with
    the per-axis lens_axis_kernel matrices Kx (npx, nx2) and Ky (npy, ny2).
    Otherwise object sums first collapse onto the lens-plane node lattice,
    then the masked lens factors propagate to the image grid; the node axis
    is cut into fixed-size blocks whose partial images are summed in block
    order. workers is accepted and changes nothing: the blocks run one after
    another as BLAS calls, whose own threads measured faster than a thread
    pool over the blocks.
    """
    k = params.k
    out_phase = fresnel_kernel(lens.v, k, x2c[None, :], y2c[:, None])  # (ny2, nx2)
    if nodes == 0:
        Kx = lens_axis_kernel(params, lens, x1c[:, None], x2c[None, :])
        Ky = lens_axis_kernel(params, lens, y1c[:, None], y2c[None, :])
        field = (Ky.T @ weights @ Kx) * out_phase
    else:
        xi, wxi = _lens_nodes(lens, nodes)
        rho2 = lens.aperture_radius**2
        quad_phase = np.exp(1j * (0.5 * k / lens.v - 0.5 * k / lens.f) * xi * xi) * wxi

        Fx = axis_amplitude(params, x1c[:, None], xi[None, :])   # (npx, nodes)
        Fy = axis_amplitude(params, y1c[:, None], xi[None, :])   # (npy, nodes)
        WF = weights.T @ Fy                                      # (npx, nodes)
        Ex = np.exp(-1j * k * np.outer(xi, x2c) / lens.v)        # (nodes, nx2)
        Ey = np.exp(-1j * k * np.outer(xi, y2c) / lens.v)        # (nodes, ny2)

        acc = None
        for a0 in range(0, nodes, _NODE_BLOCK):
            a1 = min(a0 + _NODE_BLOCK, nodes)
            G = Fx[:, a0:a1].T @ WF                              # (blk, nodes)
            mask = (xi[a0:a1, None] ** 2 + xi[None, :] ** 2) <= rho2
            H = G * mask * (quad_phase[a0:a1, None] * quad_phase[None, :])
            part = Ex[a0:a1, :].T @ (H @ Ey)                     # (nx2, ny2)
            acc = part if acc is None else acc + part
        field = (acc * out_phase.T / _on_axis_raw(params, lens, nodes)).T
    if not np.all(np.isfinite(field)):
        raise NumericError("image-field contraction produced non-finite values")
    return field
