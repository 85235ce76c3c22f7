"""Triggered-camera coincidence acquisition as a stochastic process.

Each trigger opens the camera gate once; within a gate at most one photon-2
detection lands on a pixel, chosen with probability
pair_detection_prob * map(i, j) / sum(map). The gate total is Poisson in
(trigger_rate * exposure). Gates are split into a fixed number of blocks with
seeds spawned from the configured seed, so any worker count reproduces the
same frame bit for bit; the per-pixel marginals remain exactly Poisson.
Worker w draws blocks w, w + n, w + 2n, ... (n = min(workers, GATE_BLOCKS))
and adds each draw into its own frame before it starts its next block, so an
exposure holds one draw and one frame per worker whatever GATE_BLOCKS is. The
calling thread is worker 0 and starts plain threads for the others; integer
sums do not depend on order, so the per-worker frames add up to the same
frame for every worker count.
Dark counts are an additive per-pixel Poisson field drawn in row-major order
from a dedicated child seed. Every frame is a CountFrame of integer counts:
one exposure's are nonnegative, and build_ghost_image returns the signed
difference of a signal and a background exposure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check_count
from .experiments import CoincidenceMap

# fixed shard count; workers consume shards, they never repartition them
GATE_BLOCKS = 32

# largest expected gate count, and expected dark count per pixel, of one
# exposure: numpy's Poisson sampler refuses means above ~9.2e18, and the
# int64 frame must hold the counts
MAX_MEAN_COUNT = 1e18


@dataclass(frozen=True)
class DetectorConfig:
    """Acquisition parameters of the triggered single-photon camera.

    trigger_rate: herald detections per second opening the gate.
    exposure: total frame-accumulation time, seconds.
    pair_detection_prob: probability per gate that the partner photon is
      detected anywhere on the camera.
    dark_rate: spurious counts per pixel per second.
    seed: non-negative integer seed for the reproducible stream.
    """

    trigger_rate: float = 2e4
    exposure: float = 1800.0
    pair_detection_prob: float = 0.1
    dark_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("trigger_rate", "exposure", "dark_rate"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ParameterError(f"{name} must be finite and >= 0, got {val!r}")
        for name in ("trigger_rate", "dark_rate"):
            mean = getattr(self, name) * self.exposure
            if mean > MAX_MEAN_COUNT:
                raise ParameterError(
                    f"{name} * exposure = {mean:g} exceeds the largest mean count "
                    f"{MAX_MEAN_COUNT:g} of one exposure"
                )
        if not (0.0 <= self.pair_detection_prob <= 1.0):
            raise ParameterError("pair_detection_prob must lie in [0, 1]")
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class CountFrame:
    """Accumulated integer counts on the camera grid.

    signed frames (differences of two exposures) may hold negative counts;
    every frame is a non-empty 2D integer array.
    """

    counts: np.ndarray
    meta: dict = field(default_factory=dict)
    signed: bool = False

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.size == 0:
            raise ParameterError("count frame must be a non-empty 2D array")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ParameterError("counts must be integers")
        if not self.signed and np.any(counts < 0):
            raise ParameterError("counts cannot be negative")
        object.__setattr__(self, "counts", counts)


def expected_gate_count(cfg: DetectorConfig) -> int:
    """Number of gate openings expected in one exposure."""
    return int(round(cfg.trigger_rate * cfg.exposure))


def _simulate(
    cmap: CoincidenceMap, cfg: DetectorConfig, seedseq: np.random.SeedSequence,
    workers: int,
) -> CountFrame:
    check_count("workers", workers, 1)
    values = cmap.values
    total = float(values.sum())
    shape = values.shape
    npix = values.size

    children = seedseq.spawn(GATE_BLOCKS + 1)
    lam_block = cfg.trigger_rate * cfg.exposure / GATE_BLOCKS

    if total > 0:
        pvals = np.empty(npix + 1)
        pvals[:npix] = cfg.pair_detection_prob * values.ravel() / total
        pvals[npix] = 1.0 - cfg.pair_detection_prob
    else:
        pvals = None

    # a worker beyond GATE_BLOCKS would have no block to draw
    stride = min(workers, GATE_BLOCKS)
    frames = [np.zeros(npix, dtype=np.int64) for _ in range(stride)]
    gates = [0] * stride
    errors = [None] * stride

    def draw_blocks(w: int) -> None:
        frame = frames[w]
        for b in range(w, GATE_BLOCKS, stride):
            rng = np.random.Generator(np.random.PCG64(children[b]))
            n_gates = int(rng.poisson(lam_block))
            gates[w] += n_gates
            if pvals is not None and n_gates > 0:
                # the draw is a temporary, freed here before the next block
                np.add(frame, rng.multinomial(n_gates, pvals)[:npix], out=frame)

    def worker(w: int) -> None:
        try:
            draw_blocks(w)
        except BaseException as exc:  # re-raised by the caller after the join
            errors[w] = exc

    started = []
    try:
        for w in range(1, stride):
            thread = threading.Thread(target=worker, args=(w,))
            thread.start()
            started.append(thread)
        draw_blocks(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc

    counts = frames[0]
    for frame in frames[1:]:
        np.add(counts, frame, out=counts)
    counts = counts.reshape(shape)

    if cfg.dark_rate > 0:
        dark_rng = np.random.Generator(np.random.PCG64(children[GATE_BLOCKS]))
        counts += dark_rng.poisson(cfg.dark_rate * cfg.exposure, size=shape)

    meta = {
        "gates_opened": sum(gates),
        "exposure_s": cfg.exposure,
        "seed": cfg.seed,
        "pair_detection_prob": cfg.pair_detection_prob,
        "dark_rate_per_pixel_s": cfg.dark_rate,
    }
    return CountFrame(counts=counts, meta=meta)


def simulate_exposure(
    cmap: CoincidenceMap, cfg: DetectorConfig, workers: int = 1
) -> CountFrame:
    """One accumulated frame drawn from a coincidence map."""
    return _simulate(cmap, cfg, np.random.SeedSequence(cfg.seed), workers)


def build_ghost_image(
    signal_map: CoincidenceMap,
    background_map: CoincidenceMap,
    cfg: DetectorConfig,
    workers: int = 1,
) -> CountFrame:
    """Background-corrected count image, a signed CountFrame: signal frame
    minus background frame, of two maps on one grid (check_same_grid).

    The two exposures use independent child seeds spawned from cfg.seed, so
    the pair is reproducible as a unit.
    """
    signal_map.check_same_grid(background_map)
    sig_seed, bg_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    sig = _simulate(signal_map, cfg, sig_seed, workers)
    bg = _simulate(background_map, cfg, bg_seed, workers)
    meta = {
        "signal_gates": sig.meta["gates_opened"],
        "background_gates": bg.meta["gates_opened"],
        "exposure_s": cfg.exposure,
        "seed": cfg.seed,
    }
    return CountFrame(counts=sig.counts - bg.counts, meta=meta, signed=True)
