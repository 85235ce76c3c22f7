"""Seeded inputs of the benchmark workloads.

Every input ghostsim receives is drawn here from the benchmark's --seed: the
same seed gives the same sequence of inputs, a different seed a different
one. Each workload draws from its own stream, so adding draws to one workload
never shifts the inputs of another.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

PATTERN_N = 128
PATTERN_BLOCK = 8            # a pattern is (128/8)^2 blocks of one phase each
PSF_HALF_FIELD = 0.5e-3      # object points of the PSF scans lie in +-0.5 mm


@dataclass(frozen=True)
class MapInput:
    """One ghost-image map: a phase pattern and two polarizer angles."""

    phases: np.ndarray       # (128, 128) radians in [0, pi]
    delta1_deg: float
    delta2_deg: float


@dataclass(frozen=True)
class PsfInput:
    """One PSF line scan: an object point and the direction of the scan."""

    x1: float
    y1: float
    angle: float             # radians


class Inputs:
    """The input stream of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        key = zlib.crc32(workload.encode())
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, key]))

    def seed(self) -> int:
        """A detector or CLI seed."""
        return int(self._rng.integers(0, 2**31 - 1))

    def map(self) -> MapInput:
        blocks = PATTERN_N // PATTERN_BLOCK
        coarse = self._rng.uniform(0.0, np.pi, size=(blocks, blocks))
        phases = np.kron(coarse, np.ones((PATTERN_BLOCK, PATTERN_BLOCK)))
        d1, d2 = self._rng.uniform(-90.0, 90.0, size=2)
        return MapInput(phases=phases, delta1_deg=float(d1), delta2_deg=float(d2))

    def psf(self) -> PsfInput:
        x1, y1 = self._rng.uniform(-PSF_HALF_FIELD, PSF_HALF_FIELD, size=2)
        return PsfInput(x1=float(x1), y1=float(y1),
                        angle=float(self._rng.uniform(0.0, 2 * np.pi)))
