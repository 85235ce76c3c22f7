"""Command-line front end.

Subcommands
    interference  coincidence fringe map behind a two-slit mask
    image         polarization-sensitive ghost image of a phase pattern
    montecarlo    gated-camera count emulation with background subtraction
    chsh          Bell-test S value for given angles and visibility
    validate      self-check suite; nonzero exit on any failure
    amplitude     biphoton amplitude sampled along a line

Configuration is a flat key=value text file (SI units; angles in degrees).
Precedence: built-in defaults < --config file < command-line flags; a flag
and a file entry are read by one conversion, so a bad value gives the same
error either way.  Every file-writing run also writes a ``*_config.txt`` echo
of the fully resolved configuration; fed back through --config it
reproduces the run.

The imaging geometry is derived, not configured: the lens images the object
plane at u = s1 + s2 (through the source), its image distance v follows
from 1/u + 1/v = 1/f, and the camera extent is the imaged pattern's extent
times the total object-to-camera scale. A derived camera extent comes with
a derived centre, the image of the pattern's centre, unless the centre is
non-zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from .biphoton import (
    QuadSettings,
    SourceParams,
    closed_form_amplitude,
    oracle_nodes,
    quadrature_oracle_amplitude,
)
from .detector import DetectorConfig, build_ghost_image, check_workers
from .errors import ConfigError, GhostsimError
from .experiments import (
    DoubleSlit,
    check_pattern_size,
    ghost_image_map,
    ghost_interference_map,
    half_plane_pattern,
    pattern_from_extent,
)
from .grids import SAME_GRID_TOL, GridSpec
from .io import load_pattern, parse_config, save_map, save_matrix_text, write_config_echo
from .optics import LensSystem, ghost_magnification
from .polarization import VisibilityModel, chsh_S, make_bell

# Overall object-to-camera image scale of the hardware bench being modeled;
# the lens alone gives m = v/(s1+s2), the remainder is the relay telescope
# between the lens image plane and the camera.
RELAY_TOTAL_SCALE = 0.87

_SOURCE_KEYS = dict(
    wavelength=810e-9,
    sigma=3e-3,
    s1=1.33,
)

_INTERFERENCE_DEFAULTS = dict(
    _SOURCE_KEYS,
    s2=1.0,
    slit_separation=2e-3,
    slit_width=0.0,
    slit_center=0.0,
    axis="x",
    nx=512,
    ny=128,
    extent_x=6e-3,
    extent_y=2e-3,
    center_x=0.0,
    center_y=0.0,
)

# 0.0 means "derive": nodes from the lens-plane bandwidth (or none on the
# closed form), telescope_scale from RELAY_TOTAL_SCALE, and the grid extent
# from the extent of the pattern imaged, scaled onto the camera; with a
# derived extent, the grid centre from the image of the pattern's centre.
_IMAGE_DEFAULTS = dict(
    _SOURCE_KEYS,
    s2=1.5,
    focal_length=1.5,
    aperture_radius=25e-3,
    delta1=-45.0,
    delta2=-45.0,
    pattern="",
    phase_scale=np.pi,
    pattern_n=128,
    pattern_phi=180.0,
    pattern_extent_x=4e-3,
    pattern_extent_y=4e-3,
    nx=256,
    ny=256,
    extent_x=0.0,
    extent_y=0.0,
    center_x=0.0,
    center_y=0.0,
    nodes=0,
    telescope_scale=0.0,
)

_MONTECARLO_DEFAULTS = dict(
    _IMAGE_DEFAULTS,
    workers=1,
    trigger_rate=2e4,
    exposure=1800.0,
    pair_detection_prob=0.1,
    dark_rate=0.0,
    seed=0,
)

_CHSH_DEFAULTS = dict(
    state="psi_minus",
    a=0.0,
    a_prime=45.0,
    b=22.5,
    b_prime=67.5,
    visibility=1.0,
)

_AMPLITUDE_DEFAULTS = dict(
    _SOURCE_KEYS,
    s2=1.0,
    axis="x",
    samples=201,
    extent=6e-3,
    fixed=0.0,
    x2=0.0,
    y2=0.0,
    oracle=0,
)

# --- configuration resolution -------------------------------------------------

def _coerce(key: str, text: str, defaults: dict):
    ref = defaults[key]
    try:
        if isinstance(ref, int) and not isinstance(ref, bool):
            return int(text)
        if isinstance(ref, float):
            return float(text)
    except ValueError:
        kind = "integer" if isinstance(ref, int) else "number"
        raise ConfigError(f"key '{key}': expected {kind}, got '{text}'")
    return text


def resolve_config(defaults: dict, args: argparse.Namespace) -> dict:
    """Merge defaults, --config file entries, and explicit flags, each
    converted from its text by _coerce.

    One config file may drive several subcommands, so keys used only by a
    different subcommand are ignored here; keys unknown to every subcommand
    are typos and rejected.
    """
    texts = {}
    if getattr(args, "config", None):
        known = set().union(*(keys for _, keys, _ in COMMANDS.values()))
        for key, text in parse_config(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown configuration key '{key}'")
            if key in defaults:
                texts[key] = text
    for key in defaults:
        if getattr(args, key) is not None:
            texts[key] = getattr(args, key)
    return dict(defaults, **{key: _coerce(key, text, defaults) for key, text in texts.items()})


def _add_config_flags(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    for key in defaults:
        sub.add_argument("--" + key.replace("_", "-"), default=None)


def _write(out: str, stem: str, obj, cfg: dict, note: str = "") -> None:
    """Write obj as <stem>.txt and <stem>.pgm and cfg as <stem>_config.txt
    into out, then report the two outputs."""
    os.makedirs(out, exist_ok=True)
    txt, pgm = (os.path.join(out, stem + ext) for ext in (".txt", ".pgm"))
    save_map(obj, txt, fmt="matrix-text")
    save_map(obj, pgm, fmt="graymap")
    write_config_echo(os.path.join(out, stem + "_config.txt"), cfg)
    print(f"wrote {txt}, {pgm}{note}")


def _source(cfg: dict) -> SourceParams:
    return SourceParams(**{key: cfg[key] for key in ("wavelength", "sigma", "s1", "s2")})


def _lens(cfg: dict) -> LensSystem:
    # the lens images the object plane, s1 beyond the source
    return LensSystem(
        f=cfg["focal_length"],
        u=cfg["s1"] + cfg["s2"],
        aperture_radius=cfg["aperture_radius"],
    )


def _pattern(cfg: dict):
    extent = (cfg["pattern_extent_x"], cfg["pattern_extent_y"])
    if not cfg["pattern"]:
        half = half_plane_pattern(n=cfg["pattern_n"], phi=np.deg2rad(cfg["pattern_phi"]))
        return pattern_from_extent(half.grid, extent)
    # refused even where the file's pixel header leaves the extent unused
    for axis, length in zip("xy", extent):
        if not 0 < length < np.inf:
            raise ConfigError(f"pattern_extent_{axis} must be finite and > 0, got {length}")
    return load_pattern(cfg["pattern"], phase_scale=cfg["phase_scale"], extent=extent)


def _grid(cfg: dict) -> GridSpec:
    center = (cfg["center_x"], cfg["center_y"])
    return GridSpec(cfg["nx"], cfg["ny"], cfg["extent_x"], cfg["extent_y"], center)


def _check_derived(cfg: dict, *keys: str) -> None:
    """Raise ConfigError unless each key, for which 0 means "derive", is >= 0."""
    for key in keys:
        if not cfg[key] >= 0:
            raise ConfigError(f"{key} must be >= 0 (0 derives it), got {cfg[key]}")


def _image_maps(cfg: dict, flat_background: bool = False) -> list:
    """Ghost image maps of the configured pattern and, with flat_background,
    of a flat (zero-phase) pattern on the same pixels; fills derived entries."""
    _check_derived(cfg, "nodes", "telescope_scale", "extent_x", "extent_y")
    # pattern_n is checked even when a pattern file leaves it unused
    check_pattern_size(cfg["pattern_n"])
    params = _source(cfg)
    lens = _lens(cfg)
    pattern = _pattern(cfg)
    m = ghost_magnification(params, lens)
    if cfg["telescope_scale"] == 0:
        cfg["telescope_scale"] = RELAY_TOTAL_SCALE / m
    total = m * cfg["telescope_scale"]
    for axis, pitch, n, origin in zip("xy", pattern.pitch, pattern.shape[::-1], pattern.origin):
        if cfg["extent_" + axis] == 0:
            cfg["extent_" + axis] = total * (pitch * n)
            # the image is inverted; a pattern centred to within rounding
            # keeps the camera at 0.0
            middle = origin + pitch * (n - 1) / 2
            if cfg["center_" + axis] == 0 and abs(middle) > SAME_GRID_TOL:
                cfg["center_" + axis] = -total * middle
    grid = _grid(cfg)
    quad = QuadSettings(nodes=cfg["nodes"] or None)
    patterns = [pattern]
    if flat_background:
        patterns.append(dataclasses.replace(pattern, grid=np.zeros_like(pattern.grid)))
    d1, d2 = np.deg2rad(cfg["delta1"]), np.deg2rad(cfg["delta2"])
    return [
        ghost_image_map(params, lens, pat, d1, d2, grid, quad=quad,
                        telescope_scale=cfg["telescope_scale"])
        for pat in patterns
    ]


# --- subcommands --------------------------------------------------------------

def cmd_interference(cfg: dict, out: str) -> int:
    slit = DoubleSlit(
        d=cfg["slit_separation"],
        axis=cfg["axis"],
        slit_width=cfg["slit_width"],
        center=cfg["slit_center"],
    )
    _write(out, "interference", ghost_interference_map(_source(cfg), slit, _grid(cfg)), cfg)
    return 0


def cmd_image(cfg: dict, out: str) -> int:
    (cmap,) = _image_maps(cfg)
    _write(out, "image", cmap, cfg)
    return 0


def cmd_montecarlo(cfg: dict, out: str) -> int:
    # checked first, so a bad detector setting fails before either map is made
    check_workers(cfg["workers"])
    det = DetectorConfig(
        trigger_rate=cfg["trigger_rate"],
        exposure=cfg["exposure"],
        pair_detection_prob=cfg["pair_detection_prob"],
        dark_rate=cfg["dark_rate"],
        seed=cfg["seed"],
    )
    # The background run images a flat (no-pattern) plane at the same
    # polarizer settings, mirroring the subtraction procedure at the camera.
    signal, background = _image_maps(cfg, flat_background=True)
    frame = build_ghost_image(signal, background, det, workers=cfg["workers"])
    gates = frame.meta["signal_gates"] + frame.meta["background_gates"]
    _write(out, "montecarlo", frame, cfg, f" ({gates} gates over two exposures)")
    return 0


def cmd_chsh(cfg: dict, out: str) -> int:
    state = make_bell(cfg["state"])
    value = chsh_S(
        state,
        np.deg2rad(cfg["a"]),
        np.deg2rad(cfg["a_prime"]),
        np.deg2rad(cfg["b"]),
        np.deg2rad(cfg["b_prime"]),
        vis=VisibilityModel(V=cfg["visibility"]),
    )
    print(f"S = {value:.4f}")
    return 0


def cmd_amplitude(cfg: dict, out: str) -> int:
    params = _source(cfg)
    if cfg["axis"] not in ("x", "y"):
        raise ConfigError(f"axis must be 'x' or 'y', got '{cfg['axis']}'")
    if cfg["samples"] < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg['samples']}")
    if cfg["oracle"] not in (0, 1):
        raise ConfigError(f"oracle must be 0 or 1, got {cfg['oracle']}")
    if not 0 < cfg["extent"] < np.inf:
        raise ConfigError(f"extent must be finite and > 0, got {cfg['extent']}")
    coords = np.linspace(-cfg["extent"] / 2, cfg["extent"] / 2, cfg["samples"])
    if cfg["axis"] == "x":
        x1, y1 = coords, cfg["fixed"]
    else:
        x1, y1 = cfg["fixed"], coords
    if cfg["oracle"]:
        used = oracle_nodes(params, x1, y1, cfg["x2"], cfg["y2"])
        phi = quadrature_oracle_amplitude(params, x1, y1, cfg["x2"], cfg["y2"])
    else:
        phi = closed_form_amplitude(params, x1, y1, cfg["x2"], cfg["y2"])
        used = 0
    phi = np.broadcast_to(phi, coords.shape)
    table = np.column_stack([coords, phi.real, phi.imag, np.abs(phi)])
    os.makedirs(out, exist_ok=True)
    txt = os.path.join(out, "amplitude.txt")
    meta = dict(cfg, columns=f"{cfg['axis']}1 re im abs", quadrature_nodes=used)
    save_matrix_text(txt, table, meta)
    write_config_echo(os.path.join(out, "amplitude_config.txt"), cfg)
    print(f"wrote {txt}")
    return 0


def cmd_validate(cfg: dict, out: str) -> int:
    from .validate import run_all

    return run_all()


# name: (help, defaults, handler(resolved config, output directory)); a
# subcommand without defaults takes neither flags nor a config file
COMMANDS = {
    "interference": ("two-slit coincidence fringe map", _INTERFERENCE_DEFAULTS,
                     cmd_interference),
    "image": ("ghost image of a polarization-sensitive phase pattern", _IMAGE_DEFAULTS,
              cmd_image),
    "montecarlo": ("gated-camera count accumulation with subtraction",
                   _MONTECARLO_DEFAULTS, cmd_montecarlo),
    "chsh": ("print the Bell-test S value", _CHSH_DEFAULTS, cmd_chsh),
    "validate": ("run the self-check suite", {}, cmd_validate),
    "amplitude": ("dump the amplitude along a line", _AMPLITUDE_DEFAULTS, cmd_amplitude),
}


# --- parser -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a command line it cannot parse as a ConfigError, so that main
    prints one error: line and returns 2; subparsers share the class."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghostsim",
        description="Ghost interference and ghost imaging simulator "
        "for hyper-entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if defaults:
            _add_config_flags(p, defaults)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one ``warning: <Category>: <message>`` line: the source
    line it was raised at is inside the package, or runpy's, and tells a CLI
    user nothing."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    # only the format is swapped, for this call: warnings still go through
    # warnings.showwarning, so filters and callers' capture still see them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = build_parser().parse_args(argv)
        _, defaults, handler = COMMANDS[args.command]
        return handler(resolve_config(defaults, args), getattr(args, "out", None))
    except (GhostsimError, OSError, MemoryError) as exc:
        # a missing or unreadable --config or --pattern file too, and a size
        # too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
