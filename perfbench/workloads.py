"""The benchmark's three workloads, their output checks and their traced runs.

cli_cold     Fresh ``python -m ghostsim.cli`` processes at the default
             config: montecarlo (seeded --seed), amplitude --oracle 1 and
             interference. Every one pays for the import and for
             quadrature-node generation, as users running the tool do.
image_sweep  One process, node cache warm after set-up: ghost_image_map of
             seeded random phase patterns, alternating with imaging_amplitude
             PSF line scans in the aperture-clipping Airy geometry.
mc_io        One process, both default maps computed in set-up:
             build_ghost_image at workers=2, then writing and reading back
             the frame as matrix-text and PGM.

Each workload is a closed loop with one client: an operation starts when the
previous one has ended. Untraced runs loop for --seconds (at least
MIN_ROUNDS rounds); traced runs do a fixed TRACED_ROUNDS rounds so that the
per-layer totals of two commits describe the same work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import spans
from seeds import Inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")

# end-to-end metrics every workload reports: (name, unit, meaning per workload)
E2E_METRICS = (
    ("setup_s", "s", {
        "cli_cold": "fresh interpreter importing ghostsim.cli",
        "image_sweep": "import + default map (fills the node cache)",
        "mc_io": "import + default signal and flat background maps",
    }),
    ("main_s", "s", {
        "cli_cold": "montecarlo_s: cold montecarlo process",
        "image_sweep": "map_s: one 256^2 ghost_image_map",
        "mc_io": "frame_s: build_ghost_image w2 + save text and PGM",
    }),
    ("side_s", "s", {
        "cli_cold": "oracle_s: cold amplitude --oracle 1 process",
        "image_sweep": "psf_s: one 141-point clipped PSF scan",
        "mc_io": "readback_s: load_matrix_text + load_pgm",
    }),
    ("peak_rss_mb", "MB", {
        "cli_cold": "largest child process",
        "image_sweep": "benchmark process",
        "mc_io": "benchmark process",
    }),
)

MIN_ROUNDS = {"cli_cold": 3, "image_sweep": 3, "mc_io": 5}
TRACED_ROUNDS = {"cli_cold": 1, "image_sweep": 3, "mc_io": 10}
SETUP_SAMPLES = {"cli_cold": 2, "image_sweep": 3, "mc_io": 3}   # cli_cold: per round
# no new round starts this long after the run began, so a run always ends
# well inside the 180 s a run may take
ROUND_CUTOFF_S = 130.0
CHILD_TIMEOUT_S = 120.0

MAP_TOL = 1e-6               # reference maps agree within this share of peak
AIRY_TOL = 0.05              # first dark ring within 5 % of the Airy radius
POISSON_SIGMAS = 6.0         # gate totals within 6 sigma of the expected count
PEAK_TOL = 1e-9

# default geometry, as the CLI resolves it for image and montecarlo
RELAY_TOTAL_SCALE = 0.87
PATTERN_EXTENT = 4e-3
CAMERA_N = 256
PSF_POINTS = 141
PSF_SPAN = (0.2, 1.6)        # scan radii in Airy radii
PSF_SIGMA = 40e-3            # wide source: the aperture clips the lens plane
DEFAULT_DELTA_DEG = -45.0


def reference(name: str) -> np.ndarray:
    with np.load(os.path.join(REFERENCE_DIR, name + ".npz")) as data:
        return data["values"].astype(float)


def map_problems(values, ref=None, scale: float = 1.0, what: str = "map"):
    """Problems of a peak-normalised map, and its distance from a reference."""
    values = np.asarray(values, dtype=float)
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append(f"{what} has non-finite values")
    elif values.min() < 0:
        problems.append(f"{what} has negative values")
    elif abs(values.max() - 1.0) > PEAK_TOL:
        problems.append(f"{what} peak is {values.max():.12g}, not 1")
    if ref is not None:
        problems += reference_problems(values, ref, scale, what)
    return problems


def reference_problems(values, ref, scale: float, what: str):
    if np.shape(values) != ref.shape:
        return [f"{what} shape {np.shape(values)} differs from reference {ref.shape}"]
    off = float(np.max(np.abs(values - ref)))
    if not off <= MAP_TOL * scale:
        return [f"{what} differs from reference by {off:.3e} (limit {MAP_TOL * scale:.3e})"]
    return []


def gate_problems(gates: int, exposures: int):
    expected = exposures * 2e4 * 1800.0
    if abs(gates - expected) > POISSON_SIGMAS * np.sqrt(expected):
        return [f"{gates} gates over {exposures} exposures; expected {expected:.0f}"]
    return []


class Tally:
    """Operations attempted and failed, and the timings of those that ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = defaultdict(list)

    def run(self, kind: str, op):
        """op() returns ({timing key: seconds}, [problems])."""
        self.attempted += 1
        try:
            times, problems = op()
        except Exception as exc:  # a failed operation never ends the run
            times, problems = {}, [f"raised {type(exc).__name__}: {exc}"]
        for key, seconds in times.items():
            self.times[key].append(seconds)
        if problems:
            self.failed += 1
            self.problems.append(f"{kind}: " + "; ".join(problems))


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    work_dir: str
    env: dict
    tracer: spans.Tracer = None
    started: float = field(default_factory=time.perf_counter)
    tally: Tally = field(default_factory=Tally)
    setup_s: list = field(default_factory=list)
    children: itertools.count = field(default_factory=lambda: itertools.count(1))
    interludes: list = field(default_factory=list)

    def rounds(self):
        """Round numbers of the loop: fixed when traced, else --seconds long.

        An untraced loop runs for --seconds of its own time (at least
        MIN_ROUNDS rounds). The interludes, other samples of the run, run at
        evenly spaced points of it, so that every kind of sample spans the
        whole run rather than one stretch of it.
        """
        if self.tracer is not None:
            yield from range(TRACED_ROUNDS[self.workload])
            return
        pending = list(self.interludes)
        looped, n = 0.0, 0
        while n < MIN_ROUNDS[self.workload] or looped < self.seconds:
            if time.perf_counter() - self.started > ROUND_CUTOFF_S:
                break
            if pending and looped >= self.seconds * (
                    1 - len(pending) / (len(self.interludes) + 1)):
                pending.pop(0)()
            t0 = time.perf_counter()
            yield n
            looped += time.perf_counter() - t0
            n += 1
        for interlude in pending:
            interlude()

    @contextlib.contextmanager
    def op(self, kind: str, number: int):
        """Span of one operation; calls inside it carry its operation id."""
        if self.tracer is None:
            yield
            return
        self.tracer.op = f"{kind}-{number}"
        with self.tracer.span(spans.BENCH_PREFIX + kind):
            yield
        self.tracer.op = None


# ---------------------------------------------------------------------------
# ghostsim in this process
# ---------------------------------------------------------------------------


class Lab:
    """ghostsim, imported, with the default geometries of the workloads."""

    def __init__(self, gs):
        self.gs = gs
        self.params = gs.SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.5)
        self.lens = gs.LensSystem(f=1.5, u=2.83)
        self.telescope = RELAY_TOTAL_SCALE / gs.ghost_magnification(self.params, self.lens)
        extent = RELAY_TOTAL_SCALE * PATTERN_EXTENT
        self.grid = gs.GridSpec(nx=CAMERA_N, ny=CAMERA_N, extent_x=extent, extent_y=extent)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gs.SourceRegimeWarning)
            self.psf_params = gs.SourceParams(
                wavelength=810e-9, sigma=PSF_SIGMA, s1=1.33, s2=1.5
            )
        self.airy = gs.AIRY_FIRST_ZERO * self.lens.v / (
            self.psf_params.k * self.lens.aperture_radius
        )

    def image(self, pattern, d1_deg: float, d2_deg: float, workers: int = 1):
        return self.gs.ghost_image_map(
            self.params, self.lens, pattern, np.deg2rad(d1_deg), np.deg2rad(d2_deg),
            self.grid, telescope_scale=self.telescope, workers=workers,
        )

    def default_signal(self, workers: int = 1):
        """The default image map: the CLI's half-plane pattern."""
        pattern = self.gs.half_plane_pattern(128, PATTERN_EXTENT, np.pi)
        return self.image(pattern, DEFAULT_DELTA_DEG, DEFAULT_DELTA_DEG, workers)

    def default_maps(self):
        """(signal, background) of the default montecarlo run."""
        signal = self.default_signal()
        flat = self.gs.uniform_pattern(128, PATTERN_EXTENT, 0.0)
        return signal, self.image(flat, DEFAULT_DELTA_DEG, DEFAULT_DELTA_DEG)

    def pattern(self, inp):
        return self.gs.pattern_from_extent(inp.phases, (PATTERN_EXTENT, PATTERN_EXTENT))

    def psf_scan(self, inp):
        """Scan radii (in Airy radii) and |amplitude| along one PSF line."""
        radii = np.linspace(*PSF_SPAN, PSF_POINTS)
        m = self.gs.ghost_magnification(self.psf_params, self.lens)
        r = radii * self.airy
        x2 = -m * inp.x1 + r * np.cos(inp.angle)
        y2 = -m * inp.y1 + r * np.sin(inp.angle)
        amp = self.gs.imaging_amplitude(self.psf_params, self.lens, inp.x1, inp.y1, x2, y2)
        return radii, np.abs(amp)

    def interference(self):
        """The default map of the interference subcommand."""
        gs = self.gs
        params = gs.SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
        grid = gs.GridSpec(nx=512, ny=128, extent_x=6e-3, extent_y=2e-3)
        return gs.ghost_interference_map(params, gs.DoubleSlit(d=2e-3), grid)

    def oracle(self):
        """The default table of amplitude --oracle 1: x1, re, im, abs."""
        gs = self.gs
        params = gs.SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
        x1 = np.linspace(-3e-3, 3e-3, 201)
        phi = gs.quadrature_oracle_amplitude(params, x1, 0.0, 0.0, 0.0)
        return np.column_stack([x1, phi.real, phi.imag, np.abs(phi)])


def psf_problems(radii, amp):
    if not np.all(np.isfinite(amp)):
        return ["PSF has non-finite values"]
    dips = np.nonzero((amp[1:-1] < amp[:-2]) & (amp[1:-1] < amp[2:]))[0] + 1
    if len(dips) == 0:
        return ["PSF scan has no dark ring"]
    if abs(radii[dips[0]] - 1.0) > AIRY_TOL:
        return [f"first dark ring at {radii[dips[0]]:.3f} Airy radii"]
    return []


def open_lab(tracer=None) -> Lab:
    """Import ghostsim (traced as one span) and wrap its functions if traced."""
    span = tracer.span(spans.IMPORT_SPAN) if tracer else contextlib.nullcontext()
    with span:
        gs = importlib.import_module("ghostsim")
    if tracer:
        tracer.install()
    return Lab(gs)


def timed_setup(workload: str, tracer=None):
    """Set up an in-process workload: (seconds from the ghostsim import on, lab, state)."""
    t0 = time.perf_counter()
    lab = open_lab(tracer)
    if workload == "image_sweep":
        state = {"signal": lab.default_signal()}
    else:
        signal, background = lab.default_maps()
        state = {"signal": signal, "background": background}
    return time.perf_counter() - t0, lab, state


def setup_problems(state):
    signal = state["signal"]
    problems = map_problems(signal.values, reference("default_image"), what="default map")
    if "background" in state:
        raw = state["background"].raw_values() / signal.meta["raw_peak"]
        problems += reference_problems(raw, reference("default_background"), 1.0,
                                       "flat background")
    return problems


def _child_setup(ctx: Context):
    """One set-up sample from a fresh process."""
    def op():
        done = subprocess.run(
            [sys.executable, CHILD, "setup", ctx.workload], env=ctx.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            return {}, [f"set-up process exit {done.returncode}: {done.stderr[-300:]}"]
        reply = json.loads(done.stdout.strip().splitlines()[-1])
        ctx.setup_s.append(reply["setup_s"])
        return {}, reply["problems"]
    ctx.tally.run("setup", op)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_image_sweep(ctx: Context, lab=None, state=None):
    inputs = Inputs(ctx.workload, ctx.seed)
    for n in ctx.rounds():
        inp = inputs.map()
        pattern = lab.pattern(inp)
        ref = reference("sweep_seed0_map0") if ctx.seed == 0 and n == 0 else None

        def map_op():
            t0 = time.perf_counter()
            cmap = lab.image(pattern, inp.delta1_deg, inp.delta2_deg)
            seconds = time.perf_counter() - t0
            return {"main_s": seconds}, map_problems(cmap.values, ref)

        with ctx.op("map", n):
            ctx.tally.run("map", map_op)

        psf = inputs.psf()

        def psf_op():
            t0 = time.perf_counter()
            radii, amp = lab.psf_scan(psf)
            seconds = time.perf_counter() - t0
            return {"side_s": seconds}, psf_problems(radii, amp)

        with ctx.op("psf", n):
            ctx.tally.run("psf", psf_op)


def run_mc_io(ctx: Context, lab=None, state=None):
    inputs = Inputs(ctx.workload, ctx.seed)
    gs = lab.gs
    signal, background = state["signal"], state["background"]
    txt = os.path.join(ctx.work_dir, "frame.txt")
    pgm = os.path.join(ctx.work_dir, "frame.pgm")

    for n in ctx.rounds():
        cfg = gs.DetectorConfig(seed=inputs.seed())

        def frame_op():
            t0 = time.perf_counter()
            frame = gs.build_ghost_image(signal, background, cfg, workers=2)
            gs.save_map(frame, txt, fmt="matrix-text")
            gs.save_map(frame, pgm, fmt="graymap")
            t1 = time.perf_counter()
            back, _meta = gs.load_matrix_text(txt)
            gray, maxval = gs.load_pgm(pgm)
            t2 = time.perf_counter()

            problems = []
            single = gs.build_ghost_image(signal, background, cfg, workers=1)
            if not np.array_equal(single.counts, frame.counts):
                problems.append("frames differ between workers=1 and workers=2")
            for key in ("signal_gates", "background_gates"):
                problems += gate_problems(frame.meta[key], 1)
            if not np.array_equal(back, frame.counts):
                problems.append("matrix-text readback differs from the frame written")
            vals = np.clip(frame.counts.astype(float), 0.0, None)
            want = np.rint(vals / vals.max() * maxval) if vals.max() > 0 else vals
            if not np.array_equal(gray, want):
                problems.append("PGM readback differs from the gray levels expected")
            return {"main_s": t1 - t0, "side_s": t2 - t1}, problems

        with ctx.op("frame", n):
            ctx.tally.run("frame", frame_op)


def _header(path: str) -> dict:
    """The "# key = value" lines that open a matrix-text file."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
    return meta


def _cli_checks(kind: str, out: str):
    stems = {"montecarlo": ("montecarlo", True), "oracle": ("amplitude", False),
             "interference": ("interference", True)}
    stem, has_pgm = stems[kind]
    files = [stem + ".txt", stem + "_config.txt"] + ([stem + ".pgm"] if has_pgm else [])
    missing = [f for f in files if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    txt = os.path.join(out, stem + ".txt")
    table = np.loadtxt(txt, comments="#", ndmin=2)
    if kind == "montecarlo":
        meta = _header(txt)
        problems = []
        for key in ("signal_gates", "background_gates"):
            if key in meta:
                problems += gate_problems(int(meta[key]), 1)
            else:
                problems.append(f"no {key} in the frame header")
        if table.shape != (CAMERA_N, CAMERA_N) or not np.array_equal(table, np.rint(table)):
            problems.append(f"count frame of shape {table.shape} is not integer-valued")
        return problems
    if kind == "oracle":
        ref = reference("oracle")
        return reference_problems(table, ref, float(np.max(ref[:, 3])), "oracle table")
    return map_problems(table, reference("interference"), what="interference map")


# (operation, timing key, arguments, runs per round): the oracle runs twice a
# round, so that side_s rests on more samples at little cost
CLI_OPS = (
    ("montecarlo", "main_s", ("montecarlo",), 1),
    ("oracle", "side_s", ("amplitude", "--oracle", "1"), 2),
    ("interference", "interference_s", ("interference",), 1),
)


def _cli_op(ctx: Context, kind: str, key: str, argv, number: int):
    out = os.path.join(ctx.work_dir, kind)
    tracer = ctx.tracer

    def op():
        shutil.rmtree(out, ignore_errors=True)
        cli = list(argv) + ["--out", out]
        if tracer is None:
            cmd = [sys.executable, "-m", "ghostsim.cli"] + cli
        else:
            span_file = os.path.join(ctx.work_dir, f"spans-{kind}-{number}.json")
            proc = next(ctx.children)
            cmd = [sys.executable, CHILD, "cli", span_file, str(proc),
                   str(tracer.current()), tracer.op, "--"] + cli
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if tracer is not None and os.path.isfile(span_file):
            with open(span_file, encoding="utf-8") as fh:
                record = json.load(fh)
            tracer.spans.extend(record["spans"])
            tracer.cost_s += record["cost_s"]
        if done.returncode != 0:
            return {}, [f"exit status {done.returncode}: {done.stderr.strip()[-300:]}"]
        return {key: seconds}, _cli_checks(kind, out)

    with ctx.op(kind, number):
        ctx.tally.run(kind, op)


def run_cli_cold(ctx: Context, lab=None, state=None):
    inputs = Inputs(ctx.workload, ctx.seed)
    for n in ctx.rounds():
        if ctx.tracer is None:
            cli_setup_samples(ctx, SETUP_SAMPLES["cli_cold"])
        for kind, key, argv, repeats in CLI_OPS:
            for _ in range(1 if ctx.tracer else repeats):
                seed = ("--seed", str(inputs.seed())) if kind == "montecarlo" else ()
                _cli_op(ctx, kind, key, argv + seed, n)


def cli_setup_samples(ctx: Context, count: int):
    """Fresh interpreters importing ghostsim.cli: what every cold run pays first.

    A few are taken every round, so that the median spans the whole run.
    """
    for _ in range(count):
        def op():
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", "import ghostsim.cli"],
                                  env=ctx.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            seconds = time.perf_counter() - t0
            if done.returncode != 0:
                return {}, [f"import failed: {done.stderr.strip()[-300:]}"]
            ctx.setup_s.append(seconds)
            return {}, []
        ctx.tally.run("setup", op)


RUNNERS = {"cli_cold": run_cli_cold, "image_sweep": run_image_sweep, "mc_io": run_mc_io}


# ---------------------------------------------------------------------------
# probes: one call into each traced function a workload did not reach
# ---------------------------------------------------------------------------


def _probe_calls(lab: Lab, work_dir: str, state: dict):
    """One call per traced function, on inputs made with tracing paused."""
    gs = lab.gs
    if "background" not in state:
        state["signal"], state["background"] = lab.default_maps()
    signal, background = state["signal"], state["background"]
    frame = gs.build_ghost_image(signal, background, gs.DetectorConfig(seed=1), workers=2)
    txt = os.path.join(work_dir, "probe.txt")
    pgm = os.path.join(work_dir, "probe.pgm")
    gs.save_map(frame, txt)
    gs.save_map(frame, pgm, fmt="graymap")
    cfg = gs.DetectorConfig(seed=2)
    return {
        "cli.main": lambda: gs.cli.main(["chsh"]),
        "biphoton.quadrature_oracle_amplitude": lab.oracle,
        "optics.imaging_amplitude": lambda: lab.psf_scan(Inputs("probe", 0).psf()),
        "experiments.ghost_image_map": lab.default_maps,
        "experiments.ghost_image_map.w2": lambda: lab.default_signal(workers=2),
        "experiments.ghost_interference_map": lab.interference,
        "detector.build_ghost_image": lambda: gs.build_ghost_image(
            signal, background, cfg, workers=2),
        "detector.build_ghost_image.w1": lambda: gs.build_ghost_image(
            signal, background, cfg, workers=1),
        "io.save_map.text": lambda: gs.save_map(frame, txt),
        "io.save_map.pgm": lambda: gs.save_map(frame, pgm, fmt="graymap"),
        "io.load_matrix_text": lambda: gs.load_matrix_text(txt),
        "io.load_pgm": lambda: gs.load_pgm(pgm),
        "io.write_config_echo": lambda: gs.write_config_echo(
            os.path.join(work_dir, "probe_config.txt"), {"seed": 1}),
    }


def probe_missing(ctx: Context, lab, state):
    """Reach every traced function the workload left untouched, once each.

    Every per-layer metric is then measured on every workload; a probe span
    belongs to an operation of its own, never to one of the workload's.
    """
    tracer = ctx.tracer
    tracer.uninstall()
    with tracer.pause():
        lab = lab or open_lab()
        importlib.import_module("ghostsim.cli")
        calls = _probe_calls(lab, ctx.work_dir, dict(state or {}))
    tracer.install()
    reached = {s["name"] for s in tracer.spans}
    for number, name in enumerate(n for n in spans.SPAN_NAMES if n not in reached):
        with ctx.op(spans.PROBE_OP, number), contextlib.redirect_stdout(io.StringIO()):
            calls[name]()
    tracer.uninstall()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def execute(ctx: Context):
    """Run the workload of ctx; returns the per-layer metrics if traced."""
    lab = state = None
    in_process = ctx.workload != "cli_cold"
    if in_process:
        with ctx.op("setup", 0):
            seconds, lab, state = timed_setup(ctx.workload, ctx.tracer)
        ctx.setup_s.append(seconds)
        ctx.tally.run("setup", lambda: ({}, setup_problems(state)))
        if ctx.tracer is None:
            ctx.interludes = [lambda: _child_setup(ctx)] * (SETUP_SAMPLES[ctx.workload] - 1)

    RUNNERS[ctx.workload](ctx, lab, state)

    if ctx.tracer is None:
        return None
    probe_missing(ctx, lab, state)
    tracer = ctx.tracer
    overhead = tracer.cost_s + len(tracer.spans) * spans.span_cost_s()
    return spans.layer_metrics(tracer.spans, overhead)


def e2e_metrics(ctx: Context, peak_rss_mb: float):
    samples = {
        "setup_s": ctx.setup_s,
        "main_s": ctx.tally.times["main_s"],
        "side_s": ctx.tally.times["side_s"],
    }
    out = {name: statistics.median(vals) for name, vals in samples.items() if vals}
    out["peak_rss_mb"] = peak_rss_mb
    return out, samples
