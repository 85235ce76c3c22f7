"""Self-check suite behind the ``validate`` subcommand.

Each check is independent and prints one PASS/FAIL line; the suite is sized
to finish in a few seconds so it can run on every install.
"""

from __future__ import annotations

import numpy as np

from .biphoton import (
    QuadSettings,
    SourceParams,
    closed_form_amplitude,
    quadrature_oracle_amplitude,
)
from .detector import DetectorConfig, GATE_BLOCKS, expected_gate_count, simulate_exposure
from .experiments import (
    DoubleSlit,
    expected_fringe_period,
    ghost_image_map,
    ghost_interference_map,
    half_plane_pattern,
    pattern_from_extent,
    uniform_pattern,
)
from .grids import GridSpec
from .optics import LensSystem, ghost_magnification, imaging_amplitude, lens_plane_nodes
from .polarization import STANDARD_CHSH_ANGLES, VisibilityModel, chsh_S, make_bell

_INTERFEROMETER = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
_IMAGER = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.5)
_LENS = LensSystem(f=1.5, u=2.83)


def _parabola_vertex(coords: np.ndarray, profile: np.ndarray, i: int) -> float:
    """coords[i] moved to the vertex of the parabola through profile[i - 1 : i + 2]."""
    y0, y1, y2 = profile[i - 1], profile[i], profile[i + 1]
    denom = y0 - 2 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return coords[i] + shift * (coords[1] - coords[0])


def refine_peaks(coords: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Positions of interior local maxima, refined by parabolic fit."""
    c = profile
    idx = np.nonzero((c[1:-1] > c[:-2]) & (c[1:-1] >= c[2:]))[0] + 1
    return np.array([_parabola_vertex(coords, c, i) for i in idx])


# --- individual checks --------------------------------------------------------

def check_origin_value() -> tuple[bool, str]:
    phi = closed_form_amplitude(_INTERFEROMETER, 0.0, 0.0, 0.0, 0.0)
    return complex(phi) == 1.0 + 0.0j, f"amplitude at origin = {complex(phi)}"


def check_oracle_agreement() -> tuple[bool, str]:
    g = np.linspace(-2e-3, 2e-3, 3)
    x1, y1, x2, y2 = np.meshgrid(g, g, g, g, indexing="ij")
    closed = closed_form_amplitude(_INTERFEROMETER, x1, y1, x2, y2)
    oracle = quadrature_oracle_amplitude(
        _INTERFEROMETER, x1, y1, x2, y2, QuadSettings(nodes=2048)
    )
    rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
    return rel < 1e-6, f"worst relative error {rel:.3g} on a 3^4 lattice"


def check_fringe_period() -> tuple[bool, str]:
    slit = DoubleSlit(d=2e-3, axis="x")
    grid = GridSpec(nx=512, ny=3, extent_x=6e-3, extent_y=0.5e-3)
    cmap = ghost_interference_map(_INTERFEROMETER, slit, grid)
    peaks = refine_peaks(cmap.x_centers(), cmap.values[1])
    period = float(np.mean(np.diff(peaks)))
    expected = expected_fringe_period(_INTERFEROMETER, slit.d)
    err = abs(period - expected) / expected
    return err < 0.02, f"period {period * 1e3:.4f} mm vs {expected * 1e3:.4f} mm"


def check_chsh() -> tuple[bool, str]:
    singlet = make_bell("psi_minus")
    ideal = chsh_S(singlet, *STANDARD_CHSH_ANGLES)
    scaled = chsh_S(singlet, *STANDARD_CHSH_ANGLES, vis=VisibilityModel(V=0.9086))
    ok = abs(ideal + 2 * np.sqrt(2)) < 1e-9 and abs(scaled + 2.57) < 0.005
    return ok, f"ideal {ideal:.6f}, visibility 0.9086 gives {scaled:.4f}"


def check_magnification() -> tuple[bool, str]:
    m_expect = ghost_magnification(_IMAGER, _LENS)
    x1 = 1e-3
    x2 = np.linspace(-1.3e-3, -0.95e-3, 29)
    # quad.check forces the aperture quadrature, at the count it converges at
    amp = np.abs(imaging_amplitude(_IMAGER, _LENS, x1, 0.0, x2, 0.0, quad=QuadSettings(check=True)))
    i = int(np.argmax(amp))
    i = min(max(i, 1), len(x2) - 2)
    m_found = -_parabola_vertex(x2, amp, i) / x1
    err = abs(m_found - m_expect) / m_expect
    # the refined vertex is 9.4e-6 off; a wrong-signed or missing parabola
    # step is 5.0e-3 or 2.5e-3 off
    return err < 1e-4, (
        f"tracked magnification {m_found:.7f} vs {m_expect:.7f} (relative error {err:.2g})"
    )


def _small_image(pattern, d1_deg: float):
    m = ghost_magnification(_IMAGER, _LENS)
    grid = GridSpec(nx=48, ny=48, extent_x=m * 2e-3, extent_y=m * 2e-3)
    return ghost_image_map(
        _IMAGER,
        _LENS,
        pattern,
        np.deg2rad(d1_deg),
        np.deg2rad(-45.0),
        grid,
        quad=QuadSettings(check=True),
    )


def check_image_identities() -> tuple[bool, str]:
    flat = uniform_pattern(n=32, extent=4e-3, phi=0.0)
    half = half_plane_pattern(n=32, extent=4e-3)
    ref = _small_image(flat, +45.0)
    null = _small_image(flat, -45.0)
    null_level = np.max(null.raw_values()) / np.max(ref.raw_values())
    shifted = pattern_from_extent(half.grid + np.pi, (4e-3, 4e-3))
    swap = np.max(np.abs(_small_image(half, +45.0).values - _small_image(shifted, -45.0).values))
    ok = null_level < 1e-10 and swap < 1e-12
    return ok, f"null-pattern level {null_level:.2g}, phase-swap residual {swap:.2g}"


def check_lens_closed_form() -> tuple[bool, str]:
    x1 = np.array([0.0, 1e-3, 2e-3])
    x2 = -ghost_magnification(_IMAGER, _LENS) * x1 + 0.1e-3
    nodes, bound, _ = lens_plane_nodes(_IMAGER, _LENS, QuadSettings(), x1, x1, x2, x2)
    closed = imaging_amplitude(_IMAGER, _LENS, x1, x1, x2, x2)
    quad = imaging_amplitude(_IMAGER, _LENS, x1, x1, x2, x2, quad=QuadSettings(check=True))
    gap = float(np.max(np.abs(closed - quad)))
    ok = nodes == 0 and gap <= bound
    return ok, f"closed form vs converged quadrature {gap:.2g}, clip bound {bound:.2g}"


def check_counting_statistics() -> tuple[bool, str]:
    cfg = DetectorConfig(exposure=1800.0, seed=7)
    gates = expected_gate_count(cfg)
    flat = uniform_pattern(n=32, extent=4e-3, phi=0.0)
    ref = _small_image(flat, +45.0)
    frame_a = simulate_exposure(ref, cfg, workers=1)
    frame_b = simulate_exposure(ref, cfg, workers=4)
    same = np.array_equal(frame_a.counts, frame_b.counts)
    ok = gates == 36_000_000 and same and frame_a.counts.sum() <= gates
    return ok, f"{gates} gates over {GATE_BLOCKS} blocks, worker-invariant: {same}"


_CHECKS = (
    ("origin-normalization", check_origin_value),
    ("closed-form-vs-quadrature", check_oracle_agreement),
    ("fringe-period", check_fringe_period),
    ("chsh-values", check_chsh),
    ("image-magnification", check_magnification),
    ("image-identities", check_image_identities),
    ("lens-closed-form", check_lens_closed_form),
    ("counting-statistics", check_counting_statistics),
)


def run_all() -> int:
    """Run every check; return 0 only if all pass."""
    failures = 0
    for name, check in _CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(_CHECKS)} checks failed")
    else:
        print(f"all {len(_CHECKS)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run_all())
