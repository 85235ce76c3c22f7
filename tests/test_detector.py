import hashlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ghostsim import (
    CoincidenceMap,
    CountFrame,
    DetectorConfig,
    GATE_BLOCKS,
    GridMismatchError,
    ParameterError,
    build_ghost_image,
    expected_gate_count,
    simulate_exposure,
)
from ghostsim.detector import MAX_MEAN_COUNT


def ramp_map(ny=8, nx=8):
    vals = np.arange(1.0, ny * nx + 1).reshape(ny, nx)
    return CoincidenceMap(
        values=vals / vals.max(),
        pitch=(1e-5, 1e-5),
        origin=(0.0, 0.0),
        meta={"raw_peak": vals.max()},
    )


def zero_map(ny=4, nx=4):
    return CoincidenceMap(values=np.zeros((ny, nx)), pitch=(1e-5, 1e-5), origin=(0.0, 0.0))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    DetectorConfig()
    with pytest.raises(ParameterError):
        DetectorConfig(trigger_rate=-1.0)
    with pytest.raises(ParameterError):
        DetectorConfig(exposure=np.inf)
    with pytest.raises(ParameterError):
        DetectorConfig(pair_detection_prob=1.5)
    with pytest.raises(ParameterError):
        DetectorConfig(seed=0.5)


def test_expected_gate_count_is_rate_times_exposure():
    assert expected_gate_count(DetectorConfig(trigger_rate=2e4, exposure=1800.0)) == 36_000_000
    assert expected_gate_count(DetectorConfig(trigger_rate=2e4, exposure=900.0)) == 18_000_000


def test_count_frame_validation():
    CountFrame(counts=np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        CountFrame(counts=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        CountFrame(counts=np.full((2, 2), -1, dtype=np.int64))


def test_signed_count_frame_validation():
    frame = CountFrame(counts=np.full((2, 2), -1, dtype=np.int64), signed=True)
    assert frame.counts.min() == -1
    # only the sign check is skipped: shape and dtype are checked as before
    with pytest.raises(ParameterError, match="2D"):
        CountFrame(counts=np.array([1, -2]), signed=True)
    with pytest.raises(ParameterError, match="integers"):
        CountFrame(counts=np.array([[1.0, -2.5]]), signed=True)


def test_ghost_image_is_a_signed_count_frame():
    frame = build_ghost_image(ramp_map(), ramp_map(), DetectorConfig(exposure=1.0))
    assert isinstance(frame, CountFrame) and frame.signed


# ---------------------------------------------------------------------------
# single exposures
# ---------------------------------------------------------------------------


def test_zero_map_yields_zero_counts():
    frame = simulate_exposure(zero_map(), DetectorConfig(exposure=1.0, seed=3))
    assert frame.counts.sum() == 0
    assert frame.meta["gates_opened"] > 0


def test_counts_bounded_by_gates_and_conserved_at_unit_probability():
    cfg = DetectorConfig(exposure=2.0, pair_detection_prob=0.1, seed=4)
    frame = simulate_exposure(ramp_map(), cfg)
    assert frame.counts.sum() <= frame.meta["gates_opened"]
    full = DetectorConfig(exposure=2.0, pair_detection_prob=1.0, seed=4)
    frame_full = simulate_exposure(ramp_map(), full)
    # every opened gate lands somewhere when detection is certain
    assert frame_full.counts.sum() == frame_full.meta["gates_opened"]


def test_same_seed_reproduces_and_seeds_differ():
    cfg = DetectorConfig(exposure=2.0, seed=11)
    a = simulate_exposure(ramp_map(), cfg)
    b = simulate_exposure(ramp_map(), cfg)
    c = simulate_exposure(ramp_map(), DetectorConfig(exposure=2.0, seed=12))
    np.testing.assert_array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_worker_count_never_changes_counts():
    cfg = DetectorConfig(exposure=5.0, seed=13)
    frames = [simulate_exposure(ramp_map(), cfg, workers=w) for w in (1, 2, 4, 8)]
    for other in frames[1:]:
        np.testing.assert_array_equal(frames[0].counts, other.counts)


def test_counts_follow_the_map_proportions():
    # 2.4e6 pairs over a linear ramp: relative binomial error per pixel is
    # well under a percent on the bright half
    cfg = DetectorConfig(trigger_rate=2e4, exposure=1200.0, seed=14)
    cmap = ramp_map()
    frame = simulate_exposure(cmap, cfg)
    share = frame.counts / frame.counts.sum()
    want = cmap.values / cmap.values.sum()
    bright = cmap.values > 0.5
    np.testing.assert_allclose(share[bright], want[bright], rtol=0.02)


def test_dark_counts_added_everywhere():
    cfg = DetectorConfig(exposure=100.0, dark_rate=5.0, seed=15)
    frame = simulate_exposure(zero_map(16, 16), cfg)
    mean = frame.counts.mean()
    # Poisson(500) per pixel, 256 pixels: mean within 5 sigma of 500/sqrt(256)
    assert mean == pytest.approx(500.0, abs=5 * np.sqrt(500.0 / 256))
    assert frame.meta["dark_rate_per_pixel_s"] == 5.0


def _digest(counts):
    return hashlib.sha256(np.asarray(counts).astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 4])
def test_detector_stream_is_pinned(workers):
    # digests of frames drawn before block draws were summed in place; any
    # change to the blocks, their child streams or the draw order moves them
    frame = simulate_exposure(ramp_map(), DetectorConfig(exposure=5.0, seed=13), workers=workers)
    assert _digest(frame.counts) == (
        "096894283c5de664a4d33f6d25bba28cfba52c4fedf6a2a09623d4726e9ff50d"
    )
    assert frame.meta["gates_opened"] == 99538
    image = build_ghost_image(
        ramp_map(), zero_map(8, 8), DetectorConfig(exposure=5.0, seed=21), workers=workers
    )
    assert _digest(image.counts) == (
        "fb0a96dc308dd1d229edcf6d18d9b4c920c22992baf5b29459b9dc394086fdf3"
    )
    assert (image.meta["signal_gates"], image.meta["background_gates"]) == (99915, 100262)


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_exposure_memory_is_a_few_frames(workers):
    # each worker adds its draws into its own frame as they complete, so
    # memory grows with the worker count, not with GATE_BLOCKS (keeping all
    # 32 block frames peaked near 34 frames)
    vals = np.random.default_rng(5).random((256, 256))
    cmap = CoincidenceMap(values=vals / vals.max(), pitch=(1e-5, 1e-5), origin=(0.0, 0.0))
    frame_bytes = vals.size * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        simulate_exposure(cmap, DetectorConfig(), workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(8, 2 * workers + 2) * frame_bytes


NO_POOL_LOADED = """
import sys, tempfile
import numpy as np

POOL = ("concurrent.futures", "logging")

def pool_loaded():
    return [name for name in POOL if name in sys.modules]

import ghostsim
assert not pool_loaded(), "import ghostsim"
import ghostsim.cli
assert not pool_loaded(), "import ghostsim.cli"
with tempfile.TemporaryDirectory() as out:
    code = ghostsim.cli.main(["image", "--nx", "16", "--ny", "16", "--pattern-n", "8",
                              "--out", out])
assert code == 0 and not pool_loaded(), "cli image"
from ghostsim import CoincidenceMap, DetectorConfig, build_ghost_image, simulate_exposure
vals = np.arange(1.0, 65.0).reshape(8, 8)
cmap = CoincidenceMap(values=vals / vals.max(), pitch=(1e-5, 1e-5), origin=(0.0, 0.0))
cfg = DetectorConfig(exposure=1.0, seed=3)
build_ghost_image(cmap, cmap, cfg, workers=1)
one = simulate_exposure(cmap, cfg, workers=1)
assert not pool_loaded(), "workers=1 exposures"
two = simulate_exposure(cmap, cfg, workers=2)
assert not pool_loaded(), "workers=2 exposure"
assert np.array_equal(one.counts, two.counts)
"""


def test_no_run_loads_a_thread_pool():
    # concurrent.futures pulls in logging, queue and traceback; a fresh
    # interpreter shows that neither maps nor exposures at any worker count
    # pay for them
    result = subprocess.run([sys.executable, "-c", NO_POOL_LOADED],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _count_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counting_start(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


@pytest.mark.parametrize(
    "workers, threads", [(1, 0), (np.int64(4), 3), (10**6, GATE_BLOCKS - 1)]
)
def test_an_exposure_starts_one_thread_per_extra_worker(monkeypatch, workers, threads):
    # the caller draws too; counts above GATE_BLOCKS start no idle threads,
    # and numpy integers count as integers
    cfg = DetectorConfig(exposure=1.0, seed=7)
    one = simulate_exposure(ramp_map(), cfg, workers=1)
    starts = _count_thread_starts(monkeypatch)
    frame = simulate_exposure(ramp_map(), cfg, workers=workers)
    assert len(starts) == threads
    assert not any(thread.is_alive() for thread in starts)
    np.testing.assert_array_equal(frame.counts, one.counts)
    assert frame.meta == one.meta


class BlockFailure(RuntimeError):
    pass


@pytest.mark.parametrize("workers, block", [(2, 5), (4, 5), (2, 0), (4, 8)])
@pytest.mark.parametrize("build", [False, True])
def test_a_failing_block_raises_and_leaves_no_thread(monkeypatch, workers, block, build):
    # block b is drawn by worker b % workers; worker 0 is the calling thread
    pcg64 = np.random.PCG64

    def failing_pcg64(seed):
        if seed.spawn_key[-1] == block:
            raise BlockFailure(f"block {block}")
        return pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", failing_pcg64)
    before = threading.active_count()
    cfg = DetectorConfig(exposure=1.0, seed=7)
    with pytest.raises(BlockFailure, match=f"block {block}"):
        if build:
            build_ghost_image(ramp_map(), ramp_map(), cfg, workers=workers)
        else:
            simulate_exposure(ramp_map(), cfg, workers=workers)
    assert threading.active_count() == before


def test_gate_blocks_partition_is_fixed():
    # the block structure is part of the reproducibility contract
    assert GATE_BLOCKS == 32


# ---------------------------------------------------------------------------
# background-subtracted images
# ---------------------------------------------------------------------------


def test_build_ghost_image_difference_and_determinism():
    cfg = DetectorConfig(exposure=5.0, seed=21)
    sig, bg = ramp_map(), zero_map(8, 8)
    image = build_ghost_image(sig, bg, cfg)
    again = build_ghost_image(sig, bg, cfg, workers=4)
    np.testing.assert_array_equal(image.counts, again.counts)
    assert image.meta["signal_gates"] > 0
    assert image.meta["background_gates"] > 0
    # a bright background makes negative pixels likely; the frame allows them
    noisy = build_ghost_image(sig, ramp_map(), DetectorConfig(exposure=5.0, seed=22))
    assert noisy.counts.min() < 0


def test_build_ghost_image_shape_mismatch():
    with pytest.raises(GridMismatchError):
        build_ghost_image(ramp_map(8, 8), zero_map(4, 4), DetectorConfig(exposure=1.0))


def test_build_ghost_image_needs_one_grid():
    shifted = CoincidenceMap(values=np.zeros((8, 8)), pitch=(1e-5, 1e-5), origin=(1e-6, 0.0))
    with pytest.raises(GridMismatchError, match="origin mismatch"):
        build_ghost_image(ramp_map(), shifted, DetectorConfig(exposure=1.0))


def test_signal_and_background_use_independent_streams():
    cfg = DetectorConfig(exposure=5.0, seed=23)
    image = build_ghost_image(ramp_map(), ramp_map(), cfg)
    # identical maps but different child streams: the difference is not zero
    assert np.any(image.counts != 0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_per_pixel_counts_are_poisson_distributed():
    # fixed-seed sweep: 600 exposures of a 4x4 ramp, Fano factor per pixel
    base = ramp_map(4, 4)
    frames = np.stack(
        [
            simulate_exposure(
                base, DetectorConfig(trigger_rate=2e4, exposure=2.0, seed=s)
            ).counts
            for s in range(600)
        ]
    )
    mean = frames.mean(axis=0)
    fano = frames.var(axis=0) / mean
    assert mean.min() > 25
    assert np.all(np.abs(fano - 1.0) < 0.2)


@pytest.mark.parametrize("kw", [
    dict(trigger_rate=1e300), dict(exposure=1e300), dict(exposure=1.0, dark_rate=1e300),
])
def test_mean_counts_beyond_the_sampler_rejected(kw):
    # numpy's Poisson sampler would refuse these means once the frame is drawn
    with pytest.raises(ParameterError, match="mean count"):
        DetectorConfig(**kw)


def test_mean_counts_at_the_cap_are_drawn():
    cap = DetectorConfig(trigger_rate=MAX_MEAN_COUNT, exposure=1.0, dark_rate=MAX_MEAN_COUNT)
    frame = simulate_exposure(ramp_map(), cap)
    assert frame.meta["gates_opened"] == pytest.approx(MAX_MEAN_COUNT, rel=1e-6)
    assert frame.counts.min() > 0.9 * MAX_MEAN_COUNT


def test_negative_seed_rejected():
    # numpy's SeedSequence would reject it only once the first frame is drawn
    with pytest.raises(ParameterError, match="seed"):
        DetectorConfig(seed=-1)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_counts_below_one_rejected(workers):
    cfg = DetectorConfig(trigger_rate=100.0, exposure=1.0, seed=1)
    with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
        simulate_exposure(ramp_map(), cfg, workers=workers)
    with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
        build_ghost_image(ramp_map(), ramp_map(), cfg, workers=workers)


@pytest.mark.parametrize("workers", [2.5, 2.0, "2", None])
def test_worker_counts_that_are_not_integers_rejected(monkeypatch, workers):
    # refused before any draw or thread, as the node count is
    starts = _count_thread_starts(monkeypatch)
    cfg = DetectorConfig(trigger_rate=100.0, exposure=1.0, seed=1)
    with pytest.raises(ParameterError, match="workers must be an integer"):
        simulate_exposure(ramp_map(), cfg, workers=workers)
    with pytest.raises(ParameterError, match="workers must be an integer"):
        build_ghost_image(ramp_map(), ramp_map(), cfg, workers=workers)
    assert starts == []
