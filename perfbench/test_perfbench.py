"""Self-tests of the benchmark: python3 -m pytest perfbench (from the repo root)."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from seeds import Inputs  # noqa: E402


def _span(sid, name, start, end, parent=None, proc=0, **counts):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "op": None, "proc": proc, "counts": counts}


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans_ = [
        _span(1, "a", 0.0, 10.0),
        _span(2, "b", 1.0, 3.0, parent=1),
        _span(3, "c", 2.0, 5.0, parent=1),      # overlaps b: covered once
        _span(4, "d", 8.0, 12.0, parent=1),     # runs past the parent's end
        _span(5, "e", 2.5, 3.0, parent=3),
    ]
    selfs = spans.self_times(spans_)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(0.5)


def _full_trace():
    """One span of every traced name, plus a second, warm field call."""
    out, t = [], 0.0
    for i, name in enumerate(spans.SPAN_NAMES, start=1):
        counts = {}
        if name == "optics.aperture_nodes":
            counts = {"nodes": 4363}
        elif name == "detector.build_ghost_image":
            counts = {"gates": 1000}
        elif name.startswith("io.save_map") or name == "io.write_config_echo":
            counts = {"bytes_written": 100}
        elif name.startswith("io.load"):
            counts = {"bytes_read": 50}
        out.append(_span(i, name, t, t + 1.0, **counts))
        t += 2.0
    out.append(_span(900, "optics.pattern_image_field", t, t + 0.25))
    out.append(_span(901, "optics.pattern_image_field", t + 1, t + 1.5, proc=7))
    return out


def test_layer_metrics_split_first_calls_from_warm_ones():
    metrics = spans.layer_metrics(_full_trace(), overhead_s=0.01)
    # first call per process: 1.0 s in process 0 and 0.5 s in process 7
    assert metrics["optics.pattern_image_field.first_s"] == pytest.approx(0.75)
    assert metrics["optics.pattern_image_field_s"] == pytest.approx(0.25)
    assert metrics["optics.node_setup_s"] == pytest.approx(0.5)
    assert metrics["optics.pattern_image_field.calls"] == 3
    # a name with only first calls reports those
    assert metrics["biphoton.quadrature_oracle_amplitude_s"] == pytest.approx(1.0)
    assert metrics["optics.aperture_nodes"] == 4363
    assert metrics["detector.gates_per_s"] == pytest.approx(1000.0)
    assert metrics["io.bytes_written"] == 100 and metrics["io.bytes_read"] == 50
    assert metrics["trace.overhead_s"] == 0.01
    assert set(metrics) == {name for name, _u, _b in spans.per_layer_metrics()}


def test_probe_calls_count_only_where_the_workload_made_none():
    trace = [s for s in _full_trace() if s["name"] != "optics.pattern_image_field"]
    trace += [
        dict(_span(800, "optics.pattern_image_field", 0.0, 1.0), op="probe-0"),
        _span(801, "optics.pattern_image_field", 2.0, 8.0, proc=7),
        _span(802, "optics.pattern_image_field", 9.0, 10.0, proc=7),
    ]
    metrics = spans.layer_metrics(trace, overhead_s=0.0)
    assert metrics["optics.pattern_image_field.first_s"] == pytest.approx(6.0)
    assert metrics["optics.pattern_image_field_s"] == pytest.approx(1.0)
    assert metrics["optics.pattern_image_field.calls"] == 3
    probed = [dict(s, op="probe-3") for s in _full_trace()]
    assert spans.layer_metrics(probed, 0.0) == spans.layer_metrics(_full_trace(), 0.0)


def test_layer_metrics_refuse_a_trace_with_a_missing_span():
    trace = [s for s in _full_trace() if s["name"] != "io.load_pgm"]
    with pytest.raises(ValueError, match="io.load_pgm"):
        spans.layer_metrics(trace, overhead_s=0.0)


def test_bench_spans_belong_to_no_layer():
    trace = _full_trace() + [_span(950, "bench.map", 0.0, 100.0)]
    metrics = spans.layer_metrics(trace, overhead_s=0.0)
    assert "bench.self_s" not in metrics
    assert metrics["trace.spans"] == len(trace)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_wrapper_records_variant_name_counts_and_nesting():
    tracer = spans.Tracer()

    def inner(path, workers=1):
        return 3

    def outer(path):
        return traced_inner(path, workers=2)

    traced_inner = tracer.wrap(inner, "m.inner", spans._workers_variant(1),
                               lambda args, result: {"n": result})
    traced_outer = tracer.wrap(outer, "m.outer")
    assert traced_outer("x") == 3
    by_name = {s["name"]: s for s in tracer.spans}
    assert set(by_name) == {"m.inner.w2", "m.outer"}
    assert by_name["m.inner.w2"]["parent"] == by_name["m.outer"]["id"]
    assert by_name["m.inner.w2"]["counts"] == {"n": 3}
    with tracer.pause():
        traced_outer("x")
    assert len(tracer.spans) == 2


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import ghostsim.cli
    import ghostsim.experiments

    original = ghostsim.experiments.ghost_image_map
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ghostsim.cli.ghost_image_map is not original
        assert ghostsim.ghost_image_map is ghostsim.cli.ghost_image_map
    finally:
        tracer.uninstall()
    assert ghostsim.cli.ghost_image_map is original
    assert ghostsim.experiments.ghost_image_map is original


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, unit, _meaning in workloads.E2E_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        spans.per_layer_metrics()
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.RUNNERS)
    for meaning in (m for _n, _u, m in workloads.E2E_METRICS):
        assert set(meaning) == set(workloads.RUNNERS)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _draw(workload, seed):
    inputs = Inputs(workload, seed)
    return [inputs.seed(), inputs.map(), inputs.psf(), inputs.seed()]


def _same(a, b):
    return all(
        np.array_equal(x.phases, y.phases) and (x.delta1_deg, x.delta2_deg) == (y.delta1_deg, y.delta2_deg)
        if hasattr(x, "phases") else x == y
        for x, y in zip(a, b)
    )


def test_same_seed_same_inputs():
    assert _same(_draw("image_sweep", 5), _draw("image_sweep", 5))


def test_other_seed_or_workload_other_inputs():
    base = _draw("image_sweep", 5)
    for other in (_draw("image_sweep", 6), _draw("mc_io", 5)):
        assert not any(_same([x], [y]) for x, y in zip(base, other))


def test_inputs_are_in_range():
    inputs = Inputs("image_sweep", 0)
    m = inputs.map()
    assert m.phases.shape == (128, 128)
    assert 0.0 <= m.phases.min() and m.phases.max() <= np.pi
    assert -90.0 <= m.delta1_deg < 90.0
    p = inputs.psf()
    assert max(abs(p.x1), abs(p.y1)) <= 0.5e-3
    with pytest.raises(ValueError):
        Inputs("image_sweep", -1)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_map_checks_catch_bad_maps():
    good = np.array([[0.0, 0.5], [1.0, 0.25]])
    assert workloads.map_problems(good, good) == []
    assert workloads.map_problems(good, good + 5e-7) == []
    assert workloads.map_problems(good, good + 2e-6)
    assert workloads.map_problems(good * 0.5)
    assert workloads.map_problems(good - 0.1)
    assert workloads.map_problems(np.array([[np.nan, 1.0]]))
    assert workloads.map_problems(good, np.zeros((3, 2)))


def test_psf_check_wants_the_first_dip_at_one_airy_radius():
    radii = np.linspace(0.2, 1.6, 141)
    assert workloads.psf_problems(radii, np.abs(np.cos(np.pi * radii / 2.0))) == []
    assert workloads.psf_problems(radii, np.abs(np.cos(np.pi * radii / 2.4)))
    assert workloads.psf_problems(radii, np.exp(-radii))


def test_gate_check_allows_poisson_spread_only():
    expected = 2e4 * 1800.0
    assert workloads.gate_problems(int(expected + 5 * expected**0.5), 1) == []
    assert workloads.gate_problems(int(expected + 7 * expected**0.5), 1)
    assert workloads.gate_problems(int(2 * expected), 2) == []


def test_montecarlo_check_reads_gate_totals_from_the_frame_header(tmp_path):
    counts = np.arange(256 * 256).reshape(256, 256) % 7
    rows = "\n".join(" ".join(str(v) for v in row) for row in counts)
    for name in ("montecarlo.pgm", "montecarlo_config.txt"):
        (tmp_path / name).write_text("x\n")
    frame = tmp_path / "montecarlo.txt"
    frame.write_text("# background_gates = 36001000\n# signal_gates = 35999000\n" + rows + "\n")
    assert workloads._cli_checks("montecarlo", str(tmp_path)) == []
    frame.write_text("# signal_gates = 35999000\n" + rows + "\n")
    assert workloads._cli_checks("montecarlo", str(tmp_path)) == [
        "no background_gates in the frame header"
    ]
    (tmp_path / "montecarlo.pgm").unlink()
    assert workloads._cli_checks("montecarlo", str(tmp_path))
