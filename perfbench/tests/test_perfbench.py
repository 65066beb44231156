"""Tests of the benchmark itself: generator, oracle, control and traced-run wrappers.

    python3 -m pytest -q perfbench/tests
"""

import json

import numpy as np
import pytest

import control
import fbmpower
import oracle
import run
import tracing
import workloads
from fbmpower import correlation, pipeline


@pytest.mark.parametrize("name", sorted(workloads.FLEETS))
def test_generator_is_seeded(name):
    make = workloads.FLEETS[name]
    first = make(3).csv_text()
    assert make(3).csv_text() == first
    assert make(4).csv_text() != first


def test_ragged_lengths_are_distinct_and_in_range():
    lengths = workloads.ragged_lengths(7, 32)
    assert len(set(lengths)) == 32
    assert min(lengths) >= 168 and max(lengths) <= 720


def test_calibration_replicates_are_seeded():
    assert workloads.calibrate_4096(1) == workloads.calibrate_4096(1)
    assert workloads.calibrate_4096(1) != workloads.calibrate_4096(2)


def test_oracle_agrees_with_estimate_hurst():
    y = np.diff(fbmpower.simulate_fbm(0.7, 200, seed=5, method="circulant").values)
    est = fbmpower.estimate_hurst(y)
    objectives, quads = oracle.dense_objectives(y[None, :])
    assert oracle.GRID[int(np.argmin(objectives[0]))] == est.h_hat
    i = int(np.argmin(objectives[0]))
    corr = correlation.build_correlation(est.h_hat, y.size)
    quad, _ = correlation.quadratic_form_logdet(corr, y)
    assert quads[0, i] == pytest.approx(quad, rel=1e-9)


def test_control_burst_is_the_seed_grid_search():
    y = np.diff(fbmpower.simulate_fbm(0.3, 150, seed=2, method="circulant").values)
    for h in (0.05, 0.5, 0.95):
        x, logdet = control.levinson(oracle.correlation_row(h, y.size), y)
        corr = correlation.build_correlation(h, y.size)
        quad, expected = correlation.quadratic_form_logdet(corr, y)
        assert float(np.dot(y, x)) == pytest.approx(quad, rel=1e-12)
        assert logdet == pytest.approx(expected, rel=1e-12)


def test_control_simulates_like_the_seed_cholesky_method():
    path = fbmpower.simulate_fbm(0.7, 300, seed=4, method="cholesky")
    expected = np.diff(path.values) * 300**0.7
    assert np.allclose(control.dense_fgn(0.7, 300, 4), expected, rtol=1e-9, atol=1e-9)


def test_control_takes_every_fourth_series_by_length():
    lengths = [z.size for z in control.fleet_series(workloads.FLEET_RAGGED, 5)]
    assert len(lengths) == 8 and lengths == sorted(lengths) and lengths[-1] - lengths[0] > 400
    assert [z.size for z in control.fleet_series(workloads.FLEET_2048, 5)] == [2048, 2048]
    assert len(control.burst_steps(workloads.CALIBRATE_4096, 5)) == 1


def test_end_to_end_pools_processes_and_scales_by_the_host_factor():
    procs = [run.Proc(0, 2.0, 3.0, 30.0), run.Proc(0, 4.0, 5.0, 32.0), run.Proc(1, 1.0, 1.0, 1.0)]
    metrics = run.end_to_end(8, [0.2, 0.4, 0.3], procs, bursts=[1.0, 3.0, 2.0], nominal_s=1.0)
    assert metrics == {"setup_s": 0.3, "series_per_s": 16 / 3.0, "cpu_s_per_series": 0.25,
                       "peak_rss_mb": 31.0}


def _small_fleet(tmp_path):
    series = tuple(
        workloads._fleet_series(11, workloads.FLEET_RAGGED, i, f"B{i}", "P", 200 + 7 * i, 3)
        for i in range(2)
    )
    fleet = workloads.Fleet("small", "interpolate-linear", series)
    path = tmp_path / "small.csv"
    path.write_text(fleet.csv_text())
    loaded, _ = pipeline.load_csv(path, gap_policy="interpolate-linear")
    reports = [pipeline.analyze(s) for s in loaded]
    return fleet, json.loads(pipeline.render_report(reports, "json"))


def test_fleet_oracle_passes_real_reports_and_catches_changes(tmp_path):
    fleet, doc = _small_fleet(tmp_path)
    check = oracle.FleetOracle(fleet, seed=11, input_sha256="")
    assert all(p == [] for p in check.check(doc).values())

    report = doc["reports"][0]
    report["h_hat"] = round(report["h_hat"] + 0.05, 12)
    report["verdict"] = "rejected" if report["verdict"] == "accepted" else "accepted"
    del doc["reports"][1]
    problems = check.check(doc)
    assert problems[("B0", "P")] and problems[("B1", "P")] == ["missing from the output"]


def test_fleet_oracle_fails_series_with_missing_fields(tmp_path):
    fleet, doc = _small_fleet(tmp_path)
    check = oracle.FleetOracle(fleet, seed=11, input_sha256="")
    del doc["reports"][0]["achieved_ratio"]
    problems = check.check(doc)
    assert problems[("B0", "P")][0].startswith("malformed output: KeyError")
    assert problems[("B1", "P")] == []
    assert all(p and p[0].startswith("malformed report list")
               for p in check.check(["not", "a", "document"]).values())


def test_calibration_check_fails_replicates_with_missing_fields():
    result = {"m": 4096, "h_hat": 0.7, "lam_hat": 1.2, "memory": "long", "noise": "black",
              "verdict": "accepted", "forecastable": True}
    replicates = [[0.7, 1.2, 1], [0.7, 1.2, 2]]
    doc = {"replicates": [result, dict(result)]}
    assert oracle.check_calibration(doc, replicates) == {0: [], 1: []}
    del doc["replicates"][1]["h_hat"]
    problems = oracle.check_calibration(doc, replicates)
    assert problems[0] == [] and problems[1][0].startswith("malformed output: KeyError")
    assert oracle.check_calibration("garbage", replicates) == {
        0: ["missing from the output"], 1: ["missing from the output"]}


def _attributes():
    return [(module, attr) for module, attr, _, _ in tracing.targets()]


def test_wrappers_are_removed_after_use():
    before = [getattr(module, attr) for module, attr in _attributes()]
    tracer = tracing.Tracer(series_roots=("pipeline.analyze",))
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, tracing.targets()):
            assert all(getattr(m, a) is not f for (m, a), f in zip(_attributes(), before))
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is f for (m, a), f in zip(_attributes(), before))


def test_traced_analyze_records_nested_spans_per_series(tmp_path):
    fleet, _ = _small_fleet(tmp_path)
    loaded, _ = pipeline.load_csv(tmp_path / "small.csv", gap_policy="interpolate-linear")
    tracer = tracing.Tracer(series_roots=("pipeline.analyze",))
    with tracing.installed(tracer, tracing.targets()):
        for s in loaded:
            pipeline.analyze(s)
    spans = tracer.to_json()
    roots = [i for i, s in enumerate(spans) if s["name"] == "pipeline.analyze"]
    assert [spans[i]["series"] for i in roots] == [0, 1]
    assert all(s["parent"] is not None for s in spans if s["name"] != "pipeline.analyze")
    metrics = tracing.layer_metrics(spans, csv_rows=0)
    assert metrics["hurst.estimate_hurst.calls"] == 2
    assert metrics["hurst.grid_points"] == 38
    assert metrics["correlation.solves_per_grid_point"] == 1.0
    assert metrics["pipeline.analyze.child_frac"] > 0.5
