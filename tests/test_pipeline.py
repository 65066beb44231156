import ast
import importlib
import json
import os
import pkgutil
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import fbmpower
import fbmpower.errors
import fbmpower.gaussianize as gz
from fbmpower.errors import (
    ConfigurationError,
    DegenerateSeriesError,
    InputFormatError,
    InvalidSizeError,
)
from fbmpower.pipeline import (
    AnalysisConfig,
    BuildingReport,
    RawSeries,
    analyze,
    detrend,
    load_csv,
    normalize,
    render_report,
)
from fbmpower.simulate import simulate_fbm


def write_csv(path, rows, header="timestamp,building,quantity,value"):
    lines = [header] if header else []
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def hourly_rows(building, quantity, values, start_hour=0):
    return [
        f"2024-01-{1 + (start_hour + k) // 24:02d}T{(start_hour + k) % 24:02d}:00:00,"
        f"{building},{quantity},{value}"
        for k, value in enumerate(values)
    ]


class TestNormalize:
    def test_affine_map_to_unit_interval(self):
        assert np.array_equal(normalize([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_already_normalized(self):
        assert np.array_equal(normalize([0.0, 1.0]), [0.0, 1.0])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            normalize([5.0, 5.0, 5.0])

    def test_span_past_float_range(self):
        assert np.array_equal(normalize([-1.5e308, 0.0, 1.5e308]), [0.0, 0.5, 1.0])


class TestDetrend:
    def test_exact_line_gives_zero_residuals(self):
        assert np.all(np.abs(detrend([1, 2, 3, 4, 5, 6, 7, 8, 9])) < 1e-12)

    def test_residuals_sum_to_zero(self):
        values = np.arange(9, dtype=float)
        values[4] += 2.5  # symmetric bump
        assert abs(detrend(values).sum()) < 1e-12

    def test_residuals_uncorrelated_with_index(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.standard_normal(256))
        residuals = detrend(values)
        k = np.arange(256)
        raw = np.dot(k, residuals) - k.mean() * residuals.sum()
        scale = np.abs(values).max() * 256
        assert abs(raw) / scale < 1e-8

    def test_detrending_is_idempotent(self):
        path = simulate_fbm(0.6, 512, 4, "cholesky")
        once = detrend(path.values)
        assert np.allclose(detrend(once), once, rtol=0.0, atol=1e-10)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSizeError):
            detrend([1.0, 2.0, 3.0])


class TestRawSeries:
    def test_rejects_bad_quantity(self, make_series):
        with pytest.raises(InputFormatError):
            make_series(np.ones(9), quantity="Q")

    def test_rejects_short_series(self, make_series):
        with pytest.raises(InvalidSizeError):
            make_series(np.arange(5))

    def test_rejects_nonfinite(self, make_series):
        values = np.arange(9.0)
        values[3] = np.nan
        with pytest.raises(InputFormatError, match="index 3: non-finite value nan"):
            make_series(values)

    def test_rejects_nonincreasing_timestamps(self):
        stamps = tuple([datetime(2024, 1, 1)] * 9)
        with pytest.raises(InputFormatError):
            RawSeries("b", "P", stamps, np.arange(9.0))

    def test_rejects_two_dimensional_values(self):
        stamps = tuple(datetime(2024, 1, 1, k) for k in range(16))
        with pytest.raises(InvalidSizeError, match="1-D"):
            RawSeries("b", "P", stamps, np.arange(16.0).reshape(4, 4))

    def test_rejects_naive_and_aware_timestamps(self):
        stamps = tuple(datetime(2024, 1, 1, k, tzinfo=timezone.utc if k % 2 else None)
                       for k in range(9))
        with pytest.raises(InputFormatError, match="naive"):
            RawSeries("b", "P", stamps, np.arange(9.0))


class TestLoadCsv:
    def test_parses_and_groups(self, tmp_path):
        rows = hourly_rows("alpha", "P", range(10)) + hourly_rows("alpha", "S", range(10))
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path)
        assert [(s.building_id, s.quantity) for s in series] == [("alpha", "P"), ("alpha", "S")]
        assert warnings == []
        assert np.array_equal(series[0].values, np.arange(10.0))

    def test_rows_sorted_by_timestamp(self, tmp_path):
        rows = hourly_rows("b", "P", range(10))
        path = write_csv(tmp_path / "data.csv", rows[::-1])
        series, _ = load_csv(path)
        assert np.array_equal(series[0].values, np.arange(10.0))

    def test_header_any_order_and_case(self, tmp_path):
        path = write_csv(
            tmp_path / "data.csv",
            [f"{v},2024-01-01T{k:02d}:00:00,b,P" for k, v in enumerate(range(10))],
            header="Value,Timestamp,Building,Quantity",
        )
        series, _ = load_csv(path)
        assert len(series) == 1

    def test_twenty_buildings_two_quantities(self, tmp_path):
        rows = []
        for i in range(20):
            for quantity in ("P", "S"):
                rows.extend(hourly_rows(f"b{i:02d}", quantity, np.arange(9) + i))
        path = write_csv(tmp_path / "data.csv", rows)
        series, _ = load_csv(path)
        assert len(series) == 40

    def test_short_series_skipped_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", hourly_rows("tiny", "P", [1.0, 2.0, 3.0]))
        series, warnings = load_csv(path)
        assert series == []
        assert len(warnings) == 1
        assert "tiny/P" in warnings[0] and "skipped" in warnings[0]

    def test_duplicate_timestamp_named(self, tmp_path):
        rows = hourly_rows("dup", "P", range(9))
        rows.append(rows[4])
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="duplicate timestamp.*dup/P"):
            load_csv(path)

    def test_missing_header(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", hourly_rows("b", "P", range(9)), header="")
        with pytest.raises(InputFormatError, match="line 1"):
            load_csv(path)

    def test_a_descriptor_is_not_a_path(self):
        # open() would take an int as a file descriptor, read it and close it.
        read_end, write_end = os.pipe()
        os.write(write_end, b"timestamp,building,quantity,value\n")
        os.close(write_end)
        try:
            with pytest.raises(InputFormatError, match=f"cannot read {read_end}: .* not int"):
                load_csv(read_end)
            assert os.read(read_end, 9) == b"timestamp"
        finally:
            os.close(read_end)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 1"):
            load_csv(str(path))

    def test_bad_timestamp_line_number(self, tmp_path):
        rows = hourly_rows("b", "P", range(9))
        rows[2] = "not-a-time,b,P,1.0"
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="line 4"):
            load_csv(path)

    def test_bad_value_line_number(self, tmp_path):
        rows = hourly_rows("b", "P", range(9))
        rows[5] = "2024-01-01T05:00:00,b,P,watts"
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="line 7"):
            load_csv(path)

    def test_bad_quantity_line_number(self, tmp_path):
        rows = hourly_rows("b", "P", range(9))
        rows[0] = "2024-01-01T00:00:00,b,X,1.0"
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="line 2"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        rows = hourly_rows("b", "P", range(9))
        rows[3] = "2024-01-01T03:00:00,b,P"
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="line 5"):
            load_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # The quoted building id spans lines 2-3.
            pytest.param(['2024-01-01T00:00:00,"two\nlines",P,1.0',
                          "2024-01-01T01:00:00,b,P,2.0", "not-a-time,b,P,3.0"],
                         "line 5: unparsable timestamp 'not-a-time'", id="multi_line_row"),
            pytest.param(["2024-01-01T00:00:00,b,P,1.0", "2024-01-01T01:00:00, ,P,2.0"],
                         "line 3: empty building id", id="empty_building_id"),
        ],
    )
    def test_row_message_names_the_line_the_row_ends_on(self, tmp_path, rows, message):
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            load_csv(path)

    def test_blank_lines_ignored(self, tmp_path):
        rows = hourly_rows("b", "P", range(10))
        rows.insert(3, "")
        path = write_csv(tmp_path / "data.csv", rows)
        series, _ = load_csv(path)
        assert series[0].values.size == 10

    def test_gap_policy_drop(self, tmp_path):
        rows = hourly_rows("b", "P", range(12))
        rows[4] = "2024-01-01T04:00:00,b,P,"
        rows[7] = "2024-01-01T07:00:00,b,P,nan"
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path)
        assert series[0].values.size == 10
        assert warnings == ["b/P: dropped 2 missing value(s); largest step 2:00:00"]

    def test_gap_policy_interpolate(self, tmp_path):
        rows = hourly_rows("b", "P", range(12))
        rows[4] = "2024-01-01T04:00:00,b,P,"   # interior: interpolated
        rows[0] = "2024-01-01T00:00:00,b,P,"   # leading: dropped
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path, gap_policy="interpolate-linear")
        assert series[0].values.size == 11
        assert series[0].values[3] == pytest.approx(4.0)
        assert any("interpolated 1" in w and "dropped 1 at the edges" in w for w in warnings)

    def test_gap_policy_interpolate_weights_by_time(self, tmp_path):
        # Hours 0-4 and 10-14 with hour 4 blank: by time the gap lies 1 h
        # after the value 3.0 at hour 3 and 6 h before the value 10.0 at
        # hour 10, so it is 4.0; by row index it would be the midpoint 6.5.
        hours = [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]
        rows = [f"2024-01-01T{h:02d}:00:00,b,P,{'' if h == 4 else float(h)}" for h in hours]
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path, gap_policy="interpolate-linear")
        assert np.array_equal(series[0].values, np.array(hours, dtype=float))
        assert warnings == ["b/P: interpolated 1 missing value(s)"]

    def test_gap_policy_interpolate_ignores_host_time_zone(self, tmp_path, monkeypatch):
        # 02:00 on 2024-03-10 does not exist in New York: read as local time
        # it maps to the instant of 03:00, and the gap would fill with 27.0.
        values = [24.0 + h for h in range(11)]
        values[2] = ""
        rows = [f"2024-03-10T{h:02d}:00:00,b,P,{v}" for h, v in enumerate(values)]
        path = write_csv(tmp_path / "data.csv", rows)
        filled = {}
        try:
            for tz in ("UTC", "America/New_York"):
                monkeypatch.setenv("TZ", tz)
                time.tzset()
                filled[tz] = load_csv(path, gap_policy="interpolate-linear")[0][0].values[2]
        finally:
            monkeypatch.undo()
            time.tzset()
        assert filled == {"UTC": 26.0, "America/New_York": 26.0}

    def test_gap_policy_interpolate_between_float_limits(self, tmp_path):
        # The slope from -1.5e308 to 1.5e308 overflows unless halved first.
        values = ["-1.5e308", "", "1.5e308"] + [float(h) for h in range(3, 12)]
        rows = [f"2024-01-01T{h:02d}:00:00,b,P,{v}" for h, v in enumerate(values)]
        path = write_csv(tmp_path / "data.csv", rows)
        assert load_csv(path, gap_policy="interpolate-linear")[0][0].values[1] == 0.0

    def test_gap_policy_interpolate_all_missing_skipped(self, tmp_path):
        rows = hourly_rows("b", "P", [""] * 10)
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path, gap_policy="interpolate-linear")
        assert series == []
        assert warnings == [
            "b/P: interpolated 0 missing value(s), dropped 10 at the edges",
            "b/P: skipped, only 0 usable observations (need 9)",
        ]

    def test_mixed_utc_offsets_in_one_series_named(self, tmp_path):
        rows = [
            f"2024-01-01T{k:02d}:00:00{'+00:00' if k % 2 else ''},b,P,{k}" for k in range(12)
        ]
        path = write_csv(tmp_path / "data.csv", rows)
        with pytest.raises(InputFormatError, match="line 3: .*has a UTC offset.*b/P"):
            load_csv(path)

    def test_naive_and_aware_series_load_side_by_side(self, tmp_path):
        rows = hourly_rows("naive", "P", range(10)) + [
            f"2024-01-01T{k:02d}:00:00+01:00,aware,P,{k}" for k in range(10)
        ]
        path = write_csv(tmp_path / "data.csv", rows)
        series, warnings = load_csv(path)
        assert [s.building_id for s in series] == ["aware", "naive"]
        assert warnings == []

    def test_lowercase_quantity_accepted(self, tmp_path):
        rows = [f"2024-01-01T{k:02d}:00:00,b,p,{k}" for k in range(9)]
        path = write_csv(tmp_path / "data.csv", rows)
        series, _ = load_csv(path)
        assert series[0].quantity == "P"

    def test_bad_gap_policy(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", hourly_rows("b", "P", range(9)))
        with pytest.raises(ConfigurationError):
            load_csv(path, gap_policy="ffill")


class TestAnalysisConfig:
    def test_defaults_validate(self):
        AnalysisConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_step=0.005),
            dict(grid_start=0.0),
            dict(alpha=0.0),
            dict(beta0=-1.0),
            dict(ratio_tol=0.0),
            dict(q_constant=0.0),
            dict(q_constant=float("inf")),
            dict(beta0=float("inf")),
            dict(ratio_tol=float("inf")),
            dict(alpha=0.05, paper_constants=True),
            dict(grid_stop=0.9999999999999),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(**kwargs)


class TestAnalyze:
    def test_antipersistent_path_report(self, make_series):
        path = simulate_fbm(0.3, 1024, 104, "circulant")
        report = analyze(make_series(path.values, building="low"))
        assert report.m == 1024
        assert abs(report.h_hat - 0.3) <= 0.1
        assert report.b_n is not None and report.beta1 is not None
        assert report.d_n_stat is None and report.beta2 is None
        assert report.forecastable is False
        assert report.memory_class == "short"
        assert report.noise_label == "pink"

    def test_persistent_path_forecastable_when_accepted(self, make_series):
        path = simulate_fbm(0.7, 1024, 1001, "circulant")
        report = analyze(make_series(path.values, building="high"))
        assert abs(report.h_hat - 0.7) <= 0.1
        assert report.d_n_stat is not None
        if report.verdict == "accepted":
            assert report.forecastable is True
            assert report.memory_class == "long"

    def test_reports_ratio_of_the_transformed_increments(self, make_series):
        path = simulate_fbm(0.3, 1024, 104, "circulant")
        series = make_series(path.values)
        report = analyze(series)
        incs = gz.increments(detrend(normalize(series.values)))
        z = gz.transform(incs, report.lam)
        assert report.lam == gz.fit_lambda(incs)
        assert report.achieved_ratio == gz.kurtosis_ratio(z)
        assert abs(report.achieved_ratio - gz.GAUSSIAN_RATIO) <= gz.DEFAULT_RATIO_TOL

    def test_tolerance_below_float_reach_still_fits(self, make_series):
        # At 1e-300 the bisection stalls at adjacent floats; that is a fit,
        # not a series that no power transform Gaussianizes.
        path = simulate_fbm(0.3, 256, 0, "circulant")
        report = analyze(make_series(path.values), AnalysisConfig(ratio_tol=1e-300))
        assert report.lam is not None and report.verdict is not None
        assert not any("non-Gaussianizable" in w for w in report.warnings)

    def test_constant_series_warning_only(self, make_series):
        report = analyze(make_series(np.full(64, 7.0)))
        assert report.verdict is None
        assert report.h_hat is None
        assert len(report.warnings) == 1
        assert "degenerate" in report.warnings[0]

    def test_two_valued_series_non_gaussianizable(self, make_series):
        values = np.tile([0.0, 1.0], 32)
        report = analyze(make_series(values))
        assert report.verdict == "rejected"
        assert any("non-Gaussianizable" in w for w in report.warnings)
        assert report.h_hat is None

    def test_mostly_flat_series_warns_about_zeros(self, make_series):
        values = np.repeat(np.arange(22.0), 3)  # two thirds of increments zero
        report = analyze(make_series(values))
        assert any("zero" in w for w in report.warnings)

    def test_deterministic(self, make_series):
        path = simulate_fbm(0.4, 512, 11, "cholesky")
        series = make_series(path.values)
        assert analyze(series) == analyze(series)

    def test_isolation_from_degenerate_neighbors(self, make_series):
        path = simulate_fbm(0.3, 512, 12, "cholesky")
        good = make_series(path.values, building="good")
        alone = analyze(good)
        batch = [analyze(make_series(np.full(64, 1.0), building="bad")), analyze(good)]
        assert batch[1] == alone


class TestRenderReport:
    @staticmethod
    def reports():
        accepted = BuildingReport(
            building_id="bank", quantity="P", m=4000, lam=1.0, achieved_ratio=0.6366,
            h_hat=0.4, q_at_hat=1.0, c=1.003, a_n=-1.58, a_limit=-1.57, delta=0.0064,
            b_n=0.22, d_n_stat=None, beta0=0.1, beta1=2.98, beta2=None,
            verdict="accepted", memory_class="short", noise_label="pink",
            forecastable=False, warnings=(),
        )
        rejected = BuildingReport(
            building_id="theater", quantity="P", m=4000, lam=1.1, achieved_ratio=0.6366,
            h_hat=0.1, q_at_hat=1.0, c=0.9, a_n=-1.59, a_limit=-1.5, delta=0.06,
            b_n=3.07, d_n_stat=None, beta0=0.1, beta1=2.05, beta2=None,
            verdict="rejected", memory_class="short", noise_label="pink",
            forecastable=False, warnings=("example",),
        )
        return [rejected, accepted]  # deliberately unsorted

    def test_empty_input_headers_only(self):
        assert render_report([], "json") == '{\n  "schema_version": 1,\n  "reports": []\n}\n'
        csv_text = render_report([], "csv")
        assert csv_text.count("\n") == 1
        assert csv_text.startswith("building_id,quantity,")
        md_text = render_report([], "md")
        assert md_text.count("\n") == 2

    def test_json_schema(self):
        doc = json.loads(render_report(self.reports(), "json"))
        assert doc["schema_version"] == 1
        assert [r["building_id"] for r in doc["reports"]] == ["bank", "theater"]
        bank = doc["reports"][0]
        assert bank["lambda"] == 1.0
        assert bank["verdict"] == "accepted"
        assert bank["b_n"] == 0.22
        assert bank["d_n_stat"] is None
        assert bank["warnings"] == []

    def test_markdown_verdict_column(self):
        lines = render_report(self.reports(), "md").strip().splitlines()
        assert lines[0].startswith("| building | quantity | H | A_n | B_n | D_n | A |")
        assert "| bank |" in lines[2] and "accepted" in lines[2]
        assert "| theater |" in lines[3] and "rejected" in lines[3]

    @pytest.mark.parametrize("building", ["A|B", "two\nlines", "cr\r\nlf"])
    def test_markdown_cells_keep_the_column_count(self, building):
        report = replace(self.reports()[0], building_id=building)
        lines = render_report([report], "md").splitlines()
        assert len(lines) == 3
        cells = lines[2].replace("\\|", "").count("|")
        assert cells == lines[0].count("|") == 12
        assert lines[2].startswith("| " + " ".join(building.replace("|", "\\|").split()) + " |")

    def test_csv_flattens_fields(self):
        lines = render_report(self.reports(), "csv").strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "building_id"
        assert "lambda" in header
        assert len(lines) == 3
        bank_row = lines[1]
        assert bank_row.startswith("bank,P,")
        # CSV and JSON read one field table: the same keys in the same order.
        assert render_report([], "csv").strip().split(",") == header
        for report in json.loads(render_report(self.reports(), "json"))["reports"]:
            assert list(report) == header

    def test_deterministic_bytes(self):
        reports = self.reports()
        for fmt in ("json", "csv", "md"):
            assert render_report(reports, fmt) == render_report(reports, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            render_report([], "xml")


def test_every_export_resolves():
    modules = [fbmpower] + [
        importlib.import_module(f"fbmpower.{info.name}")
        for info in pkgutil.iter_modules(fbmpower.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def test_every_raise_is_typed():
    """Each raise in the package re-raises or builds a class from
    fbmpower.errors, so callers can catch AnalysisError."""
    typed = {
        name for name, obj in vars(fbmpower.errors).items()
        if isinstance(obj, type) and issubclass(obj, fbmpower.errors.AnalysisError)
    }
    untyped = []
    for path in sorted(Path(fbmpower.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            built = node.exc.func if isinstance(node.exc, ast.Call) else None
            if not (isinstance(built, ast.Name) and built.id in typed):
                untyped.append(f"{path.name}:{node.lineno}")
    assert untyped == []


def test_only_the_array_rule_calls_asarray():
    """np.asarray is called in gaussianize._floats alone, so every array
    reaches the program through the one array rule."""
    found = []
    for path in sorted(Path(fbmpower.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {node for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_floats"
                  for node in ast.walk(func)}
        found += [
            (path.name, node.lineno, node in inside) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "asarray" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        ]
    assert [(name, inside) for name, _, inside in found] == [("gaussianize.py", True)], found
